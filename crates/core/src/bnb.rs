//! Branch and bound over the §4.2 leading rows.
//!
//! The paper: *"We use either a branch and bound technique (or general
//! nonlinear programming techniques) to minimize this function; the number
//! of variables is linear in the number of nested loops which is usually
//! very small in practice (≤ 4) resulting in small solution times."*
//!
//! This module is the one enumeration of 2-deep leading rows `(a, b)`
//! with `|a|, |b| ≤ bound`. Boxes of candidate rows are pruned by
//!
//! * **infeasibility** — a tiling constraint violated over the whole box;
//! * **bounding**, only when an objective is given — a lower bound on
//!   `(maxspan)(|α₂a − α₁b|)` over the box (`maxspan` shrinks as `|a|, |b|`
//!   grow; the weight is linear, so its box minimum sits at a corner or
//!   at zero if the kernel line crosses the box).
//!
//! Without an objective the surviving points are the coprime tileable
//! rows [`crate::optimize`] completes and ranks; with one,
//! [`try_branch_and_bound`] finds the paper's "22". The exhaustive scan
//! survives only in tests, as the oracle for both.

use crate::mws::two_level_objective;
use loopmem_dep::legality::row_tileable;
use loopmem_dep::DependenceSet;
use loopmem_ir::{AnalysisError, Bounds, BoundsMethod, TripReason};
use loopmem_linalg::gcd::gcd_i64;
use loopmem_linalg::Rational;
use loopmem_obs::{EventKind, Phase, TraceEvent};
use loopmem_sim::{AnalysisBudget, BudgetTracker};

/// Outcome of the branch-and-bound search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BnbResult {
    /// The optimal leading row.
    pub row: (i64, i64),
    /// The continuous objective at the optimum (the paper's "22").
    pub objective: Rational,
    /// Boxes examined.
    pub nodes_explored: u64,
    /// Boxes pruned by bounding or infeasibility.
    pub nodes_pruned: u64,
    /// Always 0: the search has no dependence-cone rule. The field
    /// remains for callers that still record it.
    pub cone_pruned: u64,
}

/// One run of the box recursion over `[-bound, bound]²`.
#[derive(Debug, Default)]
pub(crate) struct BoxSearch {
    /// The coprime tileable rows the recursion reached. Without an
    /// objective that is every such row in the box.
    pub(crate) rows: Vec<(i64, i64)>,
    /// The first row reaching the least objective, when one was given.
    best: Option<((i64, i64), Rational)>,
    explored: u64,
    pruned: u64,
}

impl BoxSearch {
    /// The search's `row-search` trace event, reproducible as the
    /// recursion is serial; the search records it only on success.
    pub(crate) fn event(&self) -> TraceEvent {
        TraceEvent {
            phase: Phase::Search,
            nest: None,
            ord: (0, 1),
            kind: EventKind::RowSearch {
                explored: self.explored,
                pruned: self.pruned,
            },
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Box2 {
    alo: i64,
    ahi: i64,
    blo: i64,
    bhi: i64,
}

impl Box2 {
    /// Halves the box along its wider side.
    fn split(&self) -> (Box2, Box2) {
        let (mut lo, mut hi) = (*self, *self);
        if self.ahi - self.alo >= self.bhi - self.blo {
            lo.ahi = self.alo + (self.ahi - self.alo) / 2;
            hi.alo = lo.ahi + 1;
        } else {
            lo.bhi = self.blo + (self.bhi - self.blo) / 2;
            hi.blo = lo.bhi + 1;
        }
        (lo, hi)
    }
}

/// Minimizes the §4.2 objective over coprime, tiling-legal leading rows
/// with `|a|, |b| ≤ bound`. Returns `Ok(None)` when no feasible row exists
/// (then not even `(1, 0)` is tileable, which cannot happen for distance
/// vectors of a sequentially valid loop).
///
/// Never panics and polls `budget` once per box examined (its deadline,
/// cancellation token and fault plan apply). Invalid arguments report
/// [`AnalysisError::Invalid`] instead of panicking. On a trip the
/// `Exhausted` payload bounds the *objective* (not an MWS): the best
/// feasible value seen so far bounds it from above (rounded up;
/// `u64::MAX` when none was reached), zero always bounds it from below.
pub fn try_branch_and_bound(
    alpha: (i64, i64),
    deps: &DependenceSet,
    extents: (i64, i64),
    bound: i64,
    budget: &AnalysisBudget,
) -> Result<Option<BnbResult>, AnalysisError> {
    if bound <= 0 {
        return Err(AnalysisError::Invalid {
            message: format!("search bound must be positive, got {bound}"),
        });
    }
    if extents.0 <= 0 || extents.1 <= 0 {
        return Err(AnalysisError::Invalid {
            message: format!("loop extents must be positive, got {extents:?}"),
        });
    }
    let tracker = BudgetTracker::new(budget);
    let search =
        search_boxes(deps, bound, Some((alpha, extents)), &tracker).map_err(|(reason, best)| {
            let upper = best
                .map(|obj| obj.ceil().clamp(0, i128::from(u64::MAX)) as u64)
                .unwrap_or(u64::MAX);
            AnalysisError::Exhausted {
                reason,
                partial: Bounds {
                    lower: 0,
                    upper,
                    method: BoundsMethod::ClosedForm,
                },
            }
        })?;
    Ok(search.best.map(|(row, objective)| BnbResult {
        row,
        objective,
        nodes_explored: search.explored,
        nodes_pruned: search.pruned,
        cone_pruned: 0,
    }))
}

/// Every coprime tileable leading row with `|a|, |b| ≤ bound`, sorted by
/// `(a, b)`: the box recursion without an objective, polling its own
/// unlimited tracker (the box bounds its work).
pub(crate) fn tileable_rows(deps: &DependenceSet, bound: i64) -> BoxSearch {
    let mut search = search_boxes(deps, bound.max(0), None, &BudgetTracker::unlimited())
        .expect("an unlimited tracker never trips");
    search.rows.sort_unstable();
    search
}

/// The box recursion over `[-bound, bound]²` (`bound ≥ 0`), polling
/// `tracker` once per popped box. Bounding applies only when `objective`
/// (`(α, extents)`) is given. A trip returns the reason plus the best
/// objective reached so far.
fn search_boxes(
    deps: &DependenceSet,
    bound: i64,
    objective: Option<((i64, i64), (i64, i64))>,
    tracker: &BudgetTracker,
) -> Result<BoxSearch, (TripReason, Option<Rational>)> {
    let mut s = BoxSearch::default();
    let mut stack = vec![Box2 {
        alo: -bound,
        ahi: bound,
        blo: -bound,
        bhi: bound,
    }];
    while let Some(bx) = stack.pop() {
        if let Err(reason) = tracker.check() {
            return Err((reason, s.best.map(|(_, obj)| obj)));
        }
        s.explored += 1;
        // Infeasibility pruning: a tiling half-plane violated everywhere.
        if box_infeasible(&bx, deps) {
            s.pruned += 1;
            continue;
        }
        // Bounding.
        if let (Some((alpha, extents)), Some((_, cur))) = (objective, &s.best) {
            if objective_lower_bound(alpha, extents, &bx) >= *cur {
                s.pruned += 1;
                continue;
            }
        }
        if (bx.alo, bx.blo) == (bx.ahi, bx.bhi) {
            let (a, b) = (bx.alo, bx.blo);
            if (a, b) == (0, 0) || gcd_i64(a, b) != 1 || !row_tileable(&[a, b], deps) {
                continue;
            }
            s.rows.push((a, b));
            if let Some((alpha, extents)) = objective {
                let obj = two_level_objective(alpha, (a, b), extents);
                if s.best.as_ref().is_none_or(|(_, cur)| obj < *cur) {
                    s.best = Some(((a, b), obj));
                }
            }
        } else {
            let (l, r) = bx.split();
            stack.push(l);
            stack.push(r);
        }
    }
    Ok(s)
}

/// `true` when some tiling constraint `a·d₁ + b·d₂ ≥ 0` is violated by
/// every point of the box (its maximum over the box — attained at a
/// corner of the linear form — is negative). Exact in `i128`.
fn box_infeasible(bx: &Box2, deps: &DependenceSet) -> bool {
    deps.iter()
        .filter(|d| d.kind.constrains_legality())
        .any(|d| {
            let form = |a: i64, b: i64| {
                i128::from(a) * i128::from(d.distance[0])
                    + i128::from(b) * i128::from(d.distance[1])
            };
            corners(bx).iter().all(|&(a, b)| form(a, b) < 0)
        })
}

fn corners(bx: &Box2) -> [(i64, i64); 4] {
    [
        (bx.alo, bx.blo),
        (bx.alo, bx.bhi),
        (bx.ahi, bx.blo),
        (bx.ahi, bx.bhi),
    ]
}

/// Lower bound of the objective over a box: the weight's box minimum
/// (corner minimum, or 0 when the kernel line `α₂a = α₁b` crosses the
/// box) times the maxspan at the largest coefficients. Weight 0 means a
/// window of 1, the global minimum of the objective. The weight is exact
/// in `i128` and saturates at `i64::MAX`, as in [`two_level_objective`].
fn objective_lower_bound(alpha: (i64, i64), extents: (i64, i64), bx: &Box2) -> Rational {
    let form = |(a, b): (i64, i64)| {
        i128::from(alpha.1) * i128::from(a) - i128::from(alpha.0) * i128::from(b)
    };
    let signs = corners(bx).map(form);
    // A sign change of the linear form means 0 is attainable.
    if signs.iter().any(|&x| x >= 0) && signs.iter().any(|&x| x <= 0) {
        return Rational::ONE;
    }
    let min_w = signs
        .iter()
        .map(|x| x.unsigned_abs())
        .min()
        .expect("four corners");
    let min_w = i64::try_from(min_w).unwrap_or(i64::MAX);
    let max_abs_a = bx.alo.unsigned_abs().max(bx.ahi.unsigned_abs());
    let max_abs_b = bx.blo.unsigned_abs().max(bx.bhi.unsigned_abs());
    let (n1, n2) = extents;
    let s1 = (max_abs_b > 0).then(|| Rational::new(i128::from(n1 - 1), i128::from(max_abs_b)));
    let s2 = (max_abs_a > 0).then(|| Rational::new(i128::from(n2 - 1), i128::from(max_abs_a)));
    let span = match (s1, s2) {
        (Some(x), Some(y)) => x.min(y),
        (Some(x), None) => x,
        (None, Some(y)) => y,
        (None, None) => return Rational::ONE, // the all-zero box: no row
    };
    (span + Rational::ONE) * Rational::from(min_w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopmem_dep::analyze;
    use loopmem_ir::{parse, parse_program};
    use loopmem_linalg::rng::Lcg;

    /// The search under an unlimited budget.
    fn unlimited_bnb(
        alpha: (i64, i64),
        deps: &DependenceSet,
        extents: (i64, i64),
        bound: i64,
    ) -> Option<BnbResult> {
        try_branch_and_bound(alpha, deps, extents, bound, &AnalysisBudget::unlimited())
            .expect("an unlimited budget never trips")
    }

    fn example8_deps() -> DependenceSet {
        analyze(
            &parse(
                "array X[200]\n\
                 for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
            )
            .unwrap(),
        )
    }

    /// The oracle: every coprime tileable row of the box, scanned in
    /// `(a, b)` order.
    fn exhaustive_rows(deps: &DependenceSet, bound: i64) -> Vec<(i64, i64)> {
        let mut rows = Vec::new();
        for a in -bound..=bound {
            for b in -bound..=bound {
                if (a, b) != (0, 0) && gcd_i64(a, b) == 1 && row_tileable(&[a, b], deps) {
                    rows.push((a, b));
                }
            }
        }
        rows
    }

    /// Reference minimization: the first scanned row with the least
    /// objective.
    fn exhaustive(
        alpha: (i64, i64),
        deps: &DependenceSet,
        extents: (i64, i64),
        bound: i64,
    ) -> Option<((i64, i64), Rational)> {
        exhaustive_rows(deps, bound)
            .into_iter()
            .map(|row| (row, two_level_objective(alpha, row, extents)))
            .min_by(|x, y| x.1.cmp(&y.1))
    }

    #[test]
    fn example8_optimum_is_22_at_2_3() {
        let deps = example8_deps();
        let r = unlimited_bnb((2, 5), &deps, (25, 10), 6).unwrap();
        assert_eq!(r.objective, Rational::from(22), "the paper's value");
        assert_eq!(r.row, (2, 3), "the paper's optimal leading row");
        assert!(r.nodes_pruned > 0, "bounding must actually prune");
    }

    #[test]
    fn agrees_with_exhaustive_scan() {
        let deps = example8_deps();
        for bound in [2i64, 4, 6, 8] {
            let bnb = unlimited_bnb((2, 5), &deps, (25, 10), bound).unwrap();
            let (_, obj) = exhaustive((2, 5), &deps, (25, 10), bound).unwrap();
            assert_eq!(bnb.objective, obj, "bound {bound}");
        }
    }

    #[test]
    fn agrees_on_example7() {
        // Only an input dependence: every row is feasible; the kernel
        // direction (2,-3) gives objective 1.
        let nest =
            parse("array X[100]\nfor i = 1 to 20 { for j = 1 to 30 { X[2i - 3j]; } }").unwrap();
        let deps = analyze(&nest);
        let r = unlimited_bnb((2, -3), &deps, (20, 30), 4).unwrap();
        assert_eq!(r.objective, Rational::ONE);
        let (_, obj) = exhaustive((2, -3), &deps, (20, 30), 4).unwrap();
        assert_eq!(obj, Rational::ONE);
    }

    #[test]
    fn agrees_across_random_alphas() {
        let deps = example8_deps();
        for alpha in [(1i64, 3i64), (3, 1), (1, -2), (4, 7), (0, 1), (1, 0)] {
            let bnb = unlimited_bnb(alpha, &deps, (25, 10), 5).unwrap();
            let (_, obj) = exhaustive(alpha, &deps, (25, 10), 5).unwrap();
            assert_eq!(bnb.objective, obj, "alpha {alpha:?}");
        }
    }

    #[test]
    fn pruning_is_effective() {
        let deps = example8_deps();
        let r = unlimited_bnb((2, 5), &deps, (25, 10), 16).unwrap();
        // The full box has (2*16+1)^2 = 1089 points; with interior-node
        // overhead a no-prune search would explore ~2x that.
        assert!(
            r.nodes_explored < 1500,
            "explored {} nodes",
            r.nodes_explored
        );
        assert_eq!(r.objective, Rational::from(22));
    }

    #[test]
    fn rank1_cone_collapses_the_search_to_a_line() {
        // Opposed skews: distances (1,-9) and (1,9) admit only multiples
        // of (1,0) inside [-8,8]², so the only coprime tileable row is
        // (1,0), and the bounded search's optimum matches the exhaustive
        // scan exactly.
        let nest = parse(
            "array A[100][100]\n\
             for i = 2 to 99 {\n\
               for j = 10 to 90 {\n\
                 A[i][j] = A[i-1][j+9] + A[i-1][j-9];\n\
               }\n\
             }",
        )
        .unwrap();
        let deps = analyze(&nest);
        let bound = 8;
        assert_eq!(tileable_rows(&deps, bound).rows, vec![(1, 0)]);
        let r = unlimited_bnb((1, 2), &deps, (98, 81), bound).unwrap();
        let (row, obj) = exhaustive((1, 2), &deps, (98, 81), bound).unwrap();
        assert_eq!((r.row, r.objective), (row, obj));
        assert_eq!(r.row, (1, 0));
    }

    /// Every 2-deep dependence set the enumeration is checked on: the
    /// nests of `kernels/` and of the analyze goldens, plus 240 seeded
    /// nests. Half of the seeded ones skew two reads of a 2-D array
    /// against one write, so many of their cones collapse to a line; the
    /// rest draw 1-D subscripts `p·i + q·j + c`.
    fn two_deep_dependence_sets() -> Vec<(String, DependenceSet)> {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut sources = Vec::new();
        for dir in ["../../kernels", "../analyze/tests/golden"] {
            let mut files: Vec<_> = std::fs::read_dir(root.join(dir))
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| p.extension().is_some_and(|x| x == "loop"))
                .collect();
            files.sort();
            for f in files {
                sources.push((
                    f.display().to_string(),
                    std::fs::read_to_string(&f).unwrap(),
                ));
            }
        }
        let mut rng = Lcg::new(0x0042_b0b0);
        for k in 0..240 {
            let src = if k % 2 == 0 {
                let mut sub = || {
                    format!(
                        "[i + {}][j + {}]",
                        8 + rng.range_i64(-2, 2),
                        14 + rng.range_i64(-12, 12)
                    )
                };
                format!(
                    "array A[24][60]\nfor i = 1 to 8 {{ for j = 1 to 30 {{ \
                     A{} = A{} + A{}; }} }}",
                    sub(),
                    sub(),
                    sub()
                )
            } else {
                let (p, q) = (rng.range_i64(1, 4), rng.range_i64(-4, 4));
                let qj = if q < 0 {
                    format!("- {}j", -q)
                } else {
                    format!("+ {q}j")
                };
                let mut sub = || format!("{p}i {qj} + {}", 60 + rng.range_i64(-6, 6));
                format!(
                    "array X[200]\nfor i = 1 to 12 {{ for j = 1 to 9 {{ \
                     X[{}] = X[{}]; }} }}",
                    sub(),
                    sub()
                )
            };
            sources.push((format!("seeded #{k}: {src}"), src));
        }
        let mut sets = Vec::new();
        for (name, src) in sources {
            let Ok(program) = parse_program(&src) else {
                continue; // the LM0000 golden
            };
            for nest in program.nests().iter().filter(|n| n.depth() == 2) {
                sets.push((name.clone(), analyze(nest)));
            }
        }
        sets
    }

    /// The box recursion without an objective finds exactly the rows the
    /// exhaustive scan finds, in the scan's order, so the optimizer's
    /// candidate list does not depend on which one enumerates.
    #[test]
    fn box_recursion_enumerates_the_scans_rows() {
        let sets = two_deep_dependence_sets();
        assert!(sets.len() >= 250, "only {} dependence sets", sets.len());
        for (name, deps) in &sets {
            for bound in [2i64, 3, 5, 6, 8] {
                assert_eq!(
                    tileable_rows(deps, bound).rows,
                    exhaustive_rows(deps, bound),
                    "{name} bound {bound}"
                );
            }
        }
    }

    /// The bounded minimization agrees with the exhaustive scan on the
    /// kernels' 2-deep nests and on every other set above.
    #[test]
    fn bounded_search_agrees_with_exhaustive_on_kernels() {
        for (name, deps) in two_deep_dependence_sets() {
            for alpha in [(1i64, 0i64), (0, 1), (2, 5), (1, -2), (3, 1)] {
                for bound in [3i64, 5] {
                    let bnb = unlimited_bnb(alpha, &deps, (12, 9), bound);
                    let ex = exhaustive(alpha, &deps, (12, 9), bound);
                    assert_eq!(
                        bnb.map(|r| r.objective),
                        ex.map(|(_, obj)| obj),
                        "{name} alpha {alpha:?} bound {bound}"
                    );
                }
            }
        }
    }

    /// Box and objective arithmetic near the `i64` limits saturates
    /// instead of overflowing.
    #[test]
    fn huge_distances_and_weights_do_not_overflow() {
        let deps = analyze(
            &parse(
                "array A[10][10]\nfor i = 1 to 4000000000000000002 { for j = 1 to 5 { \
                 A[i][j] = A[i - 4000000000000000000][j]; } }",
            )
            .unwrap(),
        );
        assert_eq!(tileable_rows(&deps, 6).rows, exhaustive_rows(&deps, 6));
        let alpha = (4_000_000_000_000_000_000, 1);
        let r = unlimited_bnb(alpha, &deps, (i64::MAX, 5), 6).unwrap();
        assert_eq!(
            Some(r.objective),
            exhaustive(alpha, &deps, (i64::MAX, 5), 6).map(|e| e.1)
        );
    }
}
