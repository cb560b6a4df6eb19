//! Affine constraint systems over iteration vectors.

use loopmem_ir::LoopNest;
use loopmem_linalg::gcd::gcd_slice;
use std::fmt;

/// One affine inequality `coeffs · x + constant ≥ 0`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Constraint {
    /// Per-variable coefficients.
    pub coeffs: Vec<i64>,
    /// Constant term.
    pub constant: i64,
}

impl Constraint {
    /// Creates a constraint `coeffs · x + constant ≥ 0`.
    pub fn new(coeffs: Vec<i64>, constant: i64) -> Self {
        Constraint { coeffs, constant }
    }

    /// Evaluates the left-hand side at `x`.
    pub fn eval(&self, x: &[i64]) -> i64 {
        assert_eq!(x.len(), self.coeffs.len(), "point arity mismatch");
        let acc: i128 = self
            .coeffs
            .iter()
            .zip(x)
            .map(|(&c, &v)| (c as i128) * (v as i128))
            .sum::<i128>()
            + self.constant as i128;
        acc.try_into().expect("constraint eval overflow")
    }

    /// `true` when `x` satisfies the inequality.
    pub fn satisfied_by(&self, x: &[i64]) -> bool {
        self.eval(x) >= 0
    }

    /// Divides through by the gcd of the coefficients, tightening the
    /// constant with a floor (valid over the integers).
    pub fn normalize(&mut self) {
        let g = gcd_slice(&self.coeffs);
        if g > 1 {
            for c in &mut self.coeffs {
                *c /= g;
            }
            self.constant = loopmem_linalg::gcd::div_floor(self.constant, g);
        }
    }

    /// `true` if no variable appears (the constraint is `constant ≥ 0`).
    pub fn is_trivial(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0)
    }
}

impl fmt::Debug for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}·x + {} >= 0", self.coeffs, self.constant)
    }
}

/// A conjunction of affine inequalities: `{x ∈ ℤⁿ : ∀c, c(x) ≥ 0}`.
///
/// Iteration spaces of rectangular and transformed nests are polyhedra; the
/// enumeration and counting routines in this crate are exact on the integer
/// points.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Polyhedron {
    nvars: usize,
    constraints: Vec<Constraint>,
}

impl Polyhedron {
    /// The universe polyhedron over `nvars` variables (no constraints).
    pub fn universe(nvars: usize) -> Self {
        Polyhedron {
            nvars,
            constraints: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn nvars(&self) -> usize {
        self.nvars
    }

    /// The constraint list.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Adds a constraint (normalized and deduplicated).
    ///
    /// # Panics
    ///
    /// Panics if the constraint arity differs from the polyhedron's.
    pub fn add(&mut self, mut c: Constraint) {
        assert_eq!(c.coeffs.len(), self.nvars, "constraint arity mismatch");
        c.normalize();
        if c.is_trivial() && c.constant >= 0 {
            return; // always true
        }
        if !self.constraints.contains(&c) {
            self.constraints.push(c);
        }
    }

    /// Builds the iteration-space polyhedron of a nest.
    ///
    /// Bound pieces with divisor `d` translate exactly: a lower bound
    /// `v ≥ ceil(e/d)` becomes `d·v − e ≥ 0`, an upper bound
    /// `v ≤ floor(e/d)` becomes `e − d·v ≥ 0` (both exact for integer `v`
    /// and positive `d`).
    pub fn from_nest(nest: &LoopNest) -> Self {
        let n = nest.depth();
        let mut p = Polyhedron::universe(n);
        for (k, l) in nest.loops().iter().enumerate() {
            for piece in l.lower.pieces() {
                // d·v_k - e >= 0
                let mut coeffs: Vec<i64> = piece.expr.coeffs().iter().map(|&c| -c).collect();
                coeffs[k] += piece.div;
                p.add(Constraint::new(coeffs, -piece.expr.constant_term()));
            }
            for piece in l.upper.pieces() {
                // e - d·v_k >= 0
                let mut coeffs: Vec<i64> = piece.expr.coeffs().to_vec();
                coeffs[k] -= piece.div;
                p.add(Constraint::new(coeffs, piece.expr.constant_term()));
            }
        }
        p
    }

    /// `true` when `x` satisfies every constraint.
    pub fn contains(&self, x: &[i64]) -> bool {
        self.constraints.iter().all(|c| c.satisfied_by(x))
    }

    /// `true` when the constraint system is syntactically infeasible after
    /// eliminating every variable (exact over the rationals; an
    /// integer-empty but rational-nonempty system reports `false`).
    pub fn is_rationally_empty(&self) -> bool {
        let mut p = self.clone();
        for k in (0..self.nvars).rev() {
            p = crate::fm::eliminate(&p, k);
        }
        p.constraints.iter().any(|c| c.constant < 0)
    }

    /// [`Polyhedron::from_nest`] for callers that must not panic or wrap:
    /// `None` when some bound coefficient, constant or divisor reaches
    /// 2⁶² in magnitude, beyond which the translation's negations and
    /// divisor additions could leave `i64`.
    pub fn try_from_nest(nest: &LoopNest) -> Option<Self> {
        const LIMIT: i64 = 1 << 62;
        let small = |v: i64| -LIMIT < v && v < LIMIT;
        let fits = nest.loops().iter().all(|l| {
            [&l.lower, &l.upper].iter().all(|b| {
                b.pieces().iter().all(|piece| {
                    small(piece.div)
                        && small(piece.expr.constant_term())
                        && piece.expr.coeffs().iter().all(|&c| small(c))
                })
            })
        });
        fits.then(|| Self::from_nest(nest))
    }

    /// Range `(lo, hi)` of variable `k` over the polyhedron, from the full
    /// projection onto that variable. `None` if unbounded on either side or
    /// rationally empty.
    pub fn var_range(&self, k: usize) -> Option<(i64, i64)> {
        let mut p = self.clone();
        for v in (0..self.nvars).rev() {
            if v != k {
                p = crate::fm::eliminate(&p, v);
            }
        }
        p.projected_range(k)
    }

    /// Range `(lo, hi)` of the affine function `coeffs · x + constant` over
    /// the polyhedron's integer points: [`Polyhedron::var_range`]
    /// generalized from one variable to an affine function. The function
    /// becomes an extra variable `y` bound by `y = coeffs · x + constant`,
    /// and every `x` variable is eliminated innermost-first with
    /// [`crate::fm::try_eliminate`], so the answer is the rational range
    /// of the function, tightened to integers.
    ///
    /// Total and bounded: `None` when the range is unbounded on either
    /// side, the system is rationally empty, any intermediate system would
    /// exceed `cap` constraints, or some coefficient leaves `i64` — never
    /// a panic.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` does not have one entry per variable.
    pub fn affine_range(&self, coeffs: &[i64], constant: i64, cap: usize) -> Option<(i64, i64)> {
        assert_eq!(coeffs.len(), self.nvars, "function arity mismatch");
        let n = self.nvars;
        let mut p = Polyhedron::universe(n + 1);
        for c in &self.constraints {
            let mut lifted = c.coeffs.clone();
            lifted.push(0);
            p.add(Constraint::new(lifted, c.constant));
        }
        // y − f(x) ≥ 0 and f(x) − y ≥ 0.
        let mut below: Vec<i64> = coeffs
            .iter()
            .map(|&c| c.checked_neg())
            .collect::<Option<_>>()?;
        below.push(1);
        p.add(Constraint::new(below, constant.checked_neg()?));
        let mut above = coeffs.to_vec();
        above.push(-1);
        p.add(Constraint::new(above, constant));
        for v in (0..n).rev() {
            p = crate::fm::try_eliminate(&p, v, cap)?;
        }
        // The range read-off negates constants and coefficients; `i64::MIN`
        // is the one value that cannot be negated.
        let negatable = p
            .constraints
            .iter()
            .all(|c| c.constant != i64::MIN && c.coeffs[n] != i64::MIN);
        if !negatable {
            return None;
        }
        p.projected_range(n)
    }

    /// Reads the range of variable `k` off a system in which every other
    /// variable has been eliminated.
    fn projected_range(&self, k: usize) -> Option<(i64, i64)> {
        let mut lo: Option<i64> = None;
        let mut hi: Option<i64> = None;
        for c in &self.constraints {
            let a = c.coeffs[k];
            if a > 0 {
                // a·v + const >= 0  =>  v >= ceil(-const / a)
                let b = loopmem_linalg::gcd::div_ceil(-c.constant, a);
                lo = Some(lo.map_or(b, |x: i64| x.max(b)));
            } else if a < 0 {
                let b = loopmem_linalg::gcd::div_floor(c.constant, -a);
                hi = Some(hi.map_or(b, |x: i64| x.min(b)));
            } else if c.constant < 0 {
                return None; // infeasible projection
            }
        }
        match (lo, hi) {
            (Some(lo), Some(hi)) if lo <= hi => Some((lo, hi)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopmem_ir::parse;

    fn box_2d(n1: i64, n2: i64) -> Polyhedron {
        let mut p = Polyhedron::universe(2);
        p.add(Constraint::new(vec![1, 0], -1)); // i >= 1
        p.add(Constraint::new(vec![-1, 0], n1)); // i <= n1
        p.add(Constraint::new(vec![0, 1], -1));
        p.add(Constraint::new(vec![0, -1], n2));
        p
    }

    #[test]
    fn membership() {
        let p = box_2d(10, 20);
        assert!(p.contains(&[1, 1]));
        assert!(p.contains(&[10, 20]));
        assert!(!p.contains(&[0, 1]));
        assert!(!p.contains(&[11, 1]));
    }

    #[test]
    fn normalization_tightens() {
        // 2i - 3 >= 0  =>  i >= 2 after integer tightening (i - 2 >= 0).
        let mut c = Constraint::new(vec![2], -3);
        c.normalize();
        assert_eq!(c.coeffs, vec![1]);
        assert_eq!(c.constant, -2);
        assert!(c.satisfied_by(&[2]));
        assert!(!c.satisfied_by(&[1]));
    }

    #[test]
    fn trivially_true_constraints_dropped() {
        let mut p = Polyhedron::universe(1);
        p.add(Constraint::new(vec![0], 5));
        assert!(p.constraints().is_empty());
        p.add(Constraint::new(vec![0], -5));
        assert_eq!(p.constraints().len(), 1);
        assert!(p.is_rationally_empty());
    }

    #[test]
    fn from_nest_matches_manual_box() {
        let nest =
            parse("array A[10][20]\nfor i = 1 to 10 { for j = 1 to 20 { A[i][j]; } }").unwrap();
        let p = Polyhedron::from_nest(&nest);
        for (pt, expect) in [
            ([1, 1], true),
            ([10, 20], true),
            ([0, 5], false),
            ([5, 21], false),
        ] {
            assert_eq!(p.contains(&pt), expect, "{pt:?}");
        }
    }

    #[test]
    fn var_range_of_box() {
        let p = box_2d(10, 20);
        assert_eq!(p.var_range(0), Some((1, 10)));
        assert_eq!(p.var_range(1), Some((1, 20)));
    }

    #[test]
    fn var_range_triangular() {
        // i in 1..=10, j in i..=10: j's full range is 1..=10, i's is 1..=10.
        let nest =
            parse("array A[10][10]\nfor i = 1 to 10 { for j = i to 10 { A[i][j]; } }").unwrap();
        let p = Polyhedron::from_nest(&nest);
        assert_eq!(p.var_range(0), Some((1, 10)));
        assert_eq!(p.var_range(1), Some((1, 10)));
    }

    /// Brute-force range of `f` over the integer points of `p` inside a
    /// search box.
    fn brute_range(p: &Polyhedron, f: &[i64], c: i64, r: i64) -> Option<(i64, i64)> {
        let mut out: Option<(i64, i64)> = None;
        for x in -r..=r {
            for y in -r..=r {
                if p.contains(&[x, y]) {
                    let v = f[0] * x + f[1] * y + c;
                    out = Some(out.map_or((v, v), |(lo, hi)| (lo.min(v), hi.max(v))));
                }
            }
        }
        out
    }

    #[test]
    fn affine_range_of_a_triangle() {
        // i in 1..=10, j in i..=10: i - j spans -9..=0 (interval analysis
        // over the variable box would say -9..=9), i + j spans 2..=20.
        let nest =
            parse("array A[10][10]\nfor i = 1 to 10 { for j = i to 10 { A[i][j]; } }").unwrap();
        let p = Polyhedron::from_nest(&nest);
        assert_eq!(p.affine_range(&[1, -1], 0, 64), Some((-9, 0)));
        assert_eq!(p.affine_range(&[1, 1], 0, 64), Some((2, 20)));
        assert_eq!(p.affine_range(&[1, 1], 5, 64), Some((7, 25)));
        assert_eq!(p.affine_range(&[0, 1], 0, 64), p.var_range(1));
    }

    #[test]
    fn affine_range_is_invariant_under_a_unimodular_skew() {
        // Example 8's subscript 2i + 5j + 1 over i in 1..=20, j in 1..=10,
        // against the same subscript after T = [[2,3],[1,1]]: with
        // (i, j) = T⁻¹(u, v) = (-u + 3v, u - 2v) it reads 3u - 4v + 1 over
        // 1 <= -u + 3v <= 20, 1 <= u - 2v <= 10.
        let rect = box_2d(20, 10);
        let mut skewed = Polyhedron::universe(2);
        skewed.add(Constraint::new(vec![-1, 3], -1));
        skewed.add(Constraint::new(vec![1, -3], 20));
        skewed.add(Constraint::new(vec![1, -2], -1));
        skewed.add(Constraint::new(vec![-1, 2], 10));
        let original = rect.affine_range(&[2, 5], 1, 64);
        assert_eq!(original, Some((8, 91)));
        assert_eq!(skewed.affine_range(&[3, -4], 1, 64), original);
        assert_eq!(brute_range(&skewed, &[3, -4], 1, 100), original);
    }

    /// `for i = 2 to n { for j = 1 to n { C[i][j]; } }` after
    /// T = [[-5,-3],[2,1]]: `(i, j) = (t1 + 3·t2, -2·t1 - 5·t2)`, and the
    /// regenerated inner bounds divide by 3 and 5.
    fn skewed_consumer(n: i64) -> LoopNest {
        use loopmem_ir::bounds::BoundPiece;
        use loopmem_ir::{
            AccessKind, Affine, ArrayDecl, ArrayId, ArrayRef, Bound, Loop, Statement,
        };
        let piece = |coeffs: Vec<i64>, constant, div| BoundPiece {
            expr: Affine::new(coeffs, constant),
            div,
        };
        let t1 = Loop {
            var: "t1".into(),
            lower: Bound::constant(2, -8 * n),
            upper: Bound::constant(2, -13),
        };
        let t2 = Loop {
            var: "t2".into(),
            lower: Bound::from_pieces(vec![piece(vec![-1, 0], 2, 3), piece(vec![-2, 0], -n, 5)]),
            upper: Bound::from_pieces(vec![piece(vec![-1, 0], n, 3), piece(vec![-2, 0], -1, 5)]),
        };
        let matrix = loopmem_linalg::IMat::from_rows(&[vec![1, 3], vec![-2, -5]]);
        let r = ArrayRef::new(ArrayId(0), matrix, vec![0, 0], AccessKind::Read);
        let decl = ArrayDecl::new("C", vec![n + 4, n + 4]);
        LoopNest::new(vec![t1, t2], vec![decl], vec![Statement::new(vec![r])]).unwrap()
    }

    #[test]
    fn affine_range_through_divided_bounds() {
        // Both subscripts keep exactly the untransformed ranges, 2..=12
        // and 1..=12, though the variable box is far larger.
        let nest = skewed_consumer(12);
        let p = Polyhedron::from_nest(&nest);
        assert_eq!(p.affine_range(&[1, 3], 0, 64), Some((2, 12)));
        assert_eq!(p.affine_range(&[-2, -5], 0, 64), Some((1, 12)));
        let vr = nest.var_ranges().unwrap();
        let interval = nest.refs().next().unwrap().index_ranges(&vr);
        assert!(interval[0].1 - interval[0].0 > 10 * 11, "{interval:?}");
        for (f, c) in [([1, 3], 0), ([-2, -5], 0), ([1, 1], 7)] {
            let exact = brute_range(&p, &f, c, 100).unwrap();
            let (lo, hi) = p.affine_range(&f, c, 64).unwrap();
            assert!(lo <= exact.0 && exact.1 <= hi, "{f:?}: {exact:?}");
        }
    }

    #[test]
    fn affine_range_of_an_empty_polytope_is_none() {
        let mut p = box_2d(10, 10);
        p.add(Constraint::new(vec![1, 1], -25)); // i + j >= 25 impossible
        assert_eq!(p.affine_range(&[1, 0], 0, 64), None);
        let nest = parse("array A[10]\nfor i = 5 to 4 { A[i]; }").unwrap();
        assert_eq!(Polyhedron::from_nest(&nest).affine_range(&[1], 0, 64), None);
    }

    #[test]
    fn affine_range_returns_none_on_overflow() {
        // Eliminating x0 combines these into an x1 coefficient of
        // (2^62 + 3) + (2^62 + 1) > i64::MAX.
        let big = 1i64 << 62;
        let mut p = Polyhedron::universe(2);
        p.add(Constraint::new(vec![big + 1, 1], 0));
        p.add(Constraint::new(vec![-(big + 3), 1], 0));
        assert_eq!(crate::fm::try_eliminate(&p, 0, 64), None);
        assert_eq!(p.affine_range(&[0, 1], 0, 64), None);
        assert_eq!(p.affine_range(&[i64::MIN, 0], 0, 64), None);
        assert_eq!(box_2d(3, 3).affine_range(&[1, 0], i64::MIN, 64), None);
    }

    #[test]
    fn affine_range_respects_the_constraint_cap() {
        // Three lower and three upper bounds on the inner variable: its
        // elimination pairs them into nine constraints.
        let mut p = box_2d(10, 10);
        for k in 1..=2 {
            p.add(Constraint::new(vec![-k, 1], 0)); // j >= k·i
            p.add(Constraint::new(vec![k, -1], 20)); // j <= k·i + 20
        }
        let f = [1, 1];
        // Plus the two bounds on i that do not mention j.
        assert_eq!(crate::fm::try_eliminate(&p, 1, 10), None);
        assert!(crate::fm::try_eliminate(&p, 1, 11).is_some());
        // The lifted function adds a bound on each side of j as well.
        assert_eq!(p.affine_range(&f, 0, 15), None);
        let exact = p.affine_range(&f, 0, 64).unwrap();
        assert_eq!(exact, brute_range(&p, &f, 0, 30).unwrap());
    }

    #[test]
    fn try_from_nest_rejects_bounds_near_the_i64_limit() {
        let nest = parse(
            "array B[10]\nfor i = 800 to 900 { for j = i + 9223372036854775000 to 9223372036854775807 { B[1]; } }",
        )
        .unwrap();
        assert_eq!(Polyhedron::try_from_nest(&nest), None);
        let nest =
            parse("array A[10][10]\nfor i = 1 to 10 { for j = i to 10 { A[i][j]; } }").unwrap();
        assert_eq!(
            Polyhedron::try_from_nest(&nest),
            Some(Polyhedron::from_nest(&nest))
        );
    }

    #[test]
    fn empty_detection() {
        let mut p = box_2d(10, 10);
        p.add(Constraint::new(vec![1, 1], -25)); // i + j >= 25 impossible
        assert!(p.is_rationally_empty());
        assert!(!box_2d(10, 10).is_rationally_empty());
    }
}
