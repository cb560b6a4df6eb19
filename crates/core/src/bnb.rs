//! Branch and bound for the §4.2 leading-row problem.
//!
//! The paper: *"We use either a branch and bound technique (or general
//! nonlinear programming techniques) to minimize this function; the number
//! of variables is linear in the number of nested loops which is usually
//! very small in practice (≤ 4) resulting in small solution times."*
//!
//! This module implements that search literally for 2-deep nests: minimize
//! the continuous objective `(maxspan)(|α₂a − α₁b|)` over integer leading
//! rows `(a, b)` subject to the tiling-legality half-planes `a·d₁ + b·d₂
//! ≥ 0`. Boxes of candidate rows are pruned by
//!
//! * **infeasibility** — a tiling constraint violated over the whole box;
//! * **bounding** — a lower bound on the objective over the box
//!   (`maxspan` shrinks as `|a|, |b|` grow; the weight `|α₂a − α₁b|` is
//!   linear, so its box minimum sits at a corner or at zero if the kernel
//!   line crosses the box).
//!
//! The exhaustive scan in [`crate::optimize`] serves as the reference
//! implementation; tests assert both find the same optimum.

use crate::mws::two_level_objective;
use loopmem_dep::cone::{constraining_distances, tileable_row_basis};
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
    /// Boxes pruned by bounding, infeasibility, or the cone certificate.
    pub nodes_pruned: u64,
    /// Boxes discarded by the dependence-cone certificate (LM0004's
    /// `tileable_row_basis` facts) before any window was evaluated; also
    /// counted in `nodes_pruned`.
    pub cone_pruned: u64,
    /// The primitive rank-1 direction when the cone certificate collapsed
    /// the search to a line (`None` for full-rank or empty cones) —
    /// exported into cone-prune certificates (see [`crate::cert`]).
    pub cone_direction: Option<(i64, i64)>,
    /// Every box the cone certificate discarded, as `(alo, ahi, blo, bhi)`
    /// — the evidence behind `cone_pruned`, re-checkable by interval
    /// division against `cone_direction`.
    pub pruned_boxes: Vec<(i64, i64, i64, i64)>,
}

#[derive(Clone, Copy, Debug)]
struct Box2 {
    alo: i64,
    ahi: i64,
    blo: i64,
    bhi: i64,
}

impl Box2 {
    fn is_point(&self) -> bool {
        self.alo == self.ahi && self.blo == self.bhi
    }

    fn split(&self) -> (Box2, Box2) {
        if self.ahi - self.alo >= self.bhi - self.blo {
            let mid = self.alo + (self.ahi - self.alo) / 2;
            (
                Box2 { ahi: mid, ..*self },
                Box2 {
                    alo: mid + 1,
                    ..*self
                },
            )
        } else {
            let mid = self.blo + (self.bhi - self.blo) / 2;
            (
                Box2 { bhi: mid, ..*self },
                Box2 {
                    blo: mid + 1,
                    ..*self
                },
            )
        }
    }
}

/// Minimizes the §4.2 objective over coprime, tiling-legal leading rows
/// with `|a|, |b| ≤ bound`. Returns `Ok(None)` when no feasible row exists
/// (then not even `(1, 0)` is tileable, which cannot happen for distance
/// vectors of a sequentially valid loop).
///
/// Never panics and charges one search node per box examined against
/// `budget` ([`AnalysisBudget::with_max_search_nodes`] and the deadline
/// both apply). Invalid arguments report [`AnalysisError::Invalid`] instead of
/// panicking. On a trip the `Exhausted` payload bounds the *objective*
/// (not an MWS): the best feasible value seen so far bounds it from above
/// (rounded up; `u64::MAX` when none was reached), zero always bounds it
/// from below.
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
    bnb_impl(alpha, deps, extents, bound, &tracker).map_err(|(reason, best)| {
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
    })
}

/// Upper limit on the candidate-box point count for which the cone
/// certificate is computed. The certificate enumerates the whole
/// `(2·bound+1)²` coefficient box once up front (the scan exits early
/// only when the cone is full-rank), so it is computed only when even
/// the rank-deficient worst case is negligible next to the search it
/// prunes.
const CONE_CERT_MAX_POINTS: u128 = 1 << 17;

/// What the dependence cone proves about the search box, computed once
/// per search from the same constraining distance vectors the LM0004
/// lint reports ([`constraining_distances`] / [`tileable_row_basis`]).
/// Soundness requires the certificate and the search to use the *same*
/// box: a rank computed over a smaller box says nothing about rows
/// outside it (e.g. distances `(1, ∓3)` admit only multiples of `(1,0)`
/// inside `[-2,2]²`, yet `(3,1)` is tileable).
#[derive(Clone, Copy, Debug)]
enum ConeCert {
    /// The box admits a full-rank tileable family, or the certificate was
    /// declined (deep box, cost gate): no structural pruning available.
    FullRank,
    /// Every tileable row in the box is an integer multiple of this
    /// primitive direction: boxes whose integer points miss the line
    /// `t·(v₁, v₂)` (for some `t ≠ 0`) cannot contain a feasible row.
    Line(i64, i64),
    /// No tileable row exists anywhere in the box.
    Empty,
}

fn cone_certificate(deps: &DependenceSet, bound: i64) -> ConeCert {
    if constraining_distances(deps).is_empty() {
        // Nothing constrains: every nonzero row is tileable, rank 2.
        return ConeCert::FullRank;
    }
    let width = 2 * bound as u128 + 1;
    if width * width > CONE_CERT_MAX_POINTS {
        return ConeCert::FullRank; // declined: certificate too costly
    }
    match tileable_row_basis(deps, 2, bound) {
        Some(basis) if basis.is_empty() => ConeCert::Empty,
        Some(basis) if basis.len() == 1 => {
            let (a, b) = (basis[0][0], basis[0][1]);
            let g = gcd_i64(a, b); // ≥ 1: basis rows are nonzero
            ConeCert::Line(a / g, b / g)
        }
        _ => ConeCert::FullRank,
    }
}

/// Floor division for `b != 0`.
fn div_floor(a: i64, b: i64) -> i64 {
    let q = a / b;
    if a % b != 0 && (a < 0) != (b < 0) {
        q - 1
    } else {
        q
    }
}

/// Ceiling division for `b != 0`.
fn div_ceil(a: i64, b: i64) -> i64 {
    let q = a / b;
    if a % b != 0 && (a < 0) == (b < 0) {
        q + 1
    } else {
        q
    }
}

/// `true` when no *nonzero* integer multiple of the primitive direction
/// `(v1, v2)` lies in the box: the rank-1 cone certificate then discards
/// the box outright. Intersects the integer solution ranges of
/// `t·v1 ∈ [alo, ahi]` and `t·v2 ∈ [blo, bhi]` (division only, so no
/// overflow near the `i64` limits).
fn box_misses_line(bx: &Box2, v1: i64, v2: i64) -> bool {
    let (mut tlo, mut thi) = (i64::MIN, i64::MAX);
    for (v, lo, hi) in [(v1, bx.alo, bx.ahi), (v2, bx.blo, bx.bhi)] {
        if v == 0 {
            // This coordinate of every multiple is 0; it must be inside.
            if lo > 0 || hi < 0 {
                return true;
            }
            continue;
        }
        let (a, b) = if v > 0 {
            (div_ceil(lo, v), div_floor(hi, v))
        } else {
            (div_ceil(hi, v), div_floor(lo, v))
        };
        tlo = tlo.max(a);
        thi = thi.min(b);
    }
    tlo > thi || (tlo, thi) == (0, 0)
}

/// The branch-and-bound loop, polling `tracker` once per popped box. A
/// trip returns the reason plus the best objective reached so far.
fn bnb_impl(
    alpha: (i64, i64),
    deps: &DependenceSet,
    extents: (i64, i64),
    bound: i64,
    tracker: &BudgetTracker,
) -> Result<Option<BnbResult>, (TripReason, Option<Rational>)> {
    let root = Box2 {
        alo: -bound,
        ahi: bound,
        blo: -bound,
        bhi: bound,
    };
    let cert = cone_certificate(deps, bound);
    let mut best: Option<((i64, i64), Rational)> = None;
    let mut explored = 0u64;
    let mut pruned = 0u64;
    let mut cone_pruned = 0u64;
    let mut pruned_boxes: Vec<(i64, i64, i64, i64)> = Vec::new();
    let mut stack = vec![root];
    while let Some(bx) = stack.pop() {
        if let Err(reason) = tracker.charge_search_nodes(1) {
            return Err((reason, best.map(|(_, obj)| obj)));
        }
        explored += 1;
        // Cone-certificate pruning: a box that provably contains no
        // tileable row (outside the proven rank-r row space) is discarded
        // before any bounding or window work.
        let off_cone = match cert {
            ConeCert::Empty => true,
            ConeCert::Line(v1, v2) => box_misses_line(&bx, v1, v2),
            ConeCert::FullRank => false,
        };
        if off_cone {
            pruned += 1;
            cone_pruned += 1;
            pruned_boxes.push((bx.alo, bx.ahi, bx.blo, bx.bhi));
            continue;
        }
        // Infeasibility pruning: a tiling half-plane violated everywhere.
        if box_infeasible(&bx, deps) {
            pruned += 1;
            continue;
        }
        // Bounding.
        if let Some((_, cur)) = &best {
            if objective_lower_bound(alpha, extents, &bx) >= *cur {
                pruned += 1;
                continue;
            }
        }
        if bx.is_point() {
            let (a, b) = (bx.alo, bx.blo);
            if (a, b) == (0, 0) || gcd_i64(a, b) != 1 || !row_tileable(&[a, b], deps) {
                continue;
            }
            let obj = two_level_objective(alpha, (a, b), extents);
            let better = best.as_ref().is_none_or(|(_, cur)| obj < *cur);
            if better {
                best = Some(((a, b), obj));
            }
        } else {
            let (l, r) = bx.split();
            stack.push(l);
            stack.push(r);
        }
    }
    // The search is a serial deterministic scan, so the node counts are
    // reproducible; emitted only on completion (a tripped search's
    // progress depends on where the budget landed).
    if let Some(sink) = tracker.trace() {
        sink.record(TraceEvent {
            phase: Phase::Search,
            nest: None,
            ord: (0, 1),
            kind: EventKind::ConePrune {
                boxes: cone_pruned,
                explored,
                pruned,
            },
        });
    }
    Ok(best.map(|(row, objective)| BnbResult {
        row,
        objective,
        nodes_explored: explored,
        nodes_pruned: pruned,
        cone_pruned,
        cone_direction: match cert {
            ConeCert::Line(v1, v2) => Some((v1, v2)),
            _ => None,
        },
        pruned_boxes,
    }))
}

/// `true` when some tiling constraint `a·d₁ + b·d₂ ≥ 0` is violated by
/// every point of the box (its maximum over the box — attained at a
/// corner of the linear form — is negative).
fn box_infeasible(bx: &Box2, deps: &DependenceSet) -> bool {
    deps.iter()
        .filter(|d| d.kind.constrains_legality())
        .any(|d| {
            let (d1, d2) = (d.distance[0], d.distance[1]);
            let corners = [
                bx.alo * d1 + bx.blo * d2,
                bx.alo * d1 + bx.bhi * d2,
                bx.ahi * d1 + bx.blo * d2,
                bx.ahi * d1 + bx.bhi * d2,
            ];
            corners.iter().all(|&c| c < 0)
        })
}

/// Lower bound of the objective over a box: the weight's box minimum
/// (corner minimum, or 0 when the kernel line `α₂a = α₁b` crosses the
/// box) times the maxspan at the largest coefficients. Weight 0 means a
/// window of 1, the global minimum of the objective.
fn objective_lower_bound(alpha: (i64, i64), extents: (i64, i64), bx: &Box2) -> Rational {
    let w = |a: i64, b: i64| (alpha.1 * a - alpha.0 * b).abs();
    let corners = [
        w(bx.alo, bx.blo),
        w(bx.alo, bx.bhi),
        w(bx.ahi, bx.blo),
        w(bx.ahi, bx.bhi),
    ];
    // Sign change of the (signed) linear form means 0 is attainable.
    let s = |a: i64, b: i64| alpha.1 * a - alpha.0 * b;
    let signs = [
        s(bx.alo, bx.blo),
        s(bx.alo, bx.bhi),
        s(bx.ahi, bx.blo),
        s(bx.ahi, bx.bhi),
    ];
    let min_w = if signs.iter().any(|&x| x >= 0) && signs.iter().any(|&x| x <= 0) {
        0
    } else {
        *corners.iter().min().expect("four corners")
    };
    if min_w == 0 {
        return Rational::ONE;
    }
    let max_abs_a = bx.alo.abs().max(bx.ahi.abs());
    let max_abs_b = bx.blo.abs().max(bx.bhi.abs());
    let (n1, n2) = extents;
    let s1 = (max_abs_b > 0).then(|| Rational::new((n1 - 1) as i128, max_abs_b as i128));
    let s2 = (max_abs_a > 0).then(|| Rational::new((n2 - 1) as i128, max_abs_a as i128));
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
    use loopmem_ir::parse;

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

    /// Reference: exhaustive scan over the same space.
    fn exhaustive(
        alpha: (i64, i64),
        deps: &DependenceSet,
        extents: (i64, i64),
        bound: i64,
    ) -> Option<((i64, i64), Rational)> {
        let mut best: Option<((i64, i64), Rational)> = None;
        for a in -bound..=bound {
            for b in -bound..=bound {
                if (a, b) == (0, 0) || gcd_i64(a, b) != 1 || !row_tileable(&[a, b], deps) {
                    continue;
                }
                let obj = two_level_objective(alpha, (a, b), extents);
                if best.as_ref().is_none_or(|(_, cur)| obj < *cur) {
                    best = Some(((a, b), obj));
                }
            }
        }
        best
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
        // of (1,0) inside [-8,8]², so the cone certificate is Line(1,0)
        // and every box off the a-axis line is discarded without
        // bounding work — while the optimum still matches the exhaustive
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
        let r = unlimited_bnb((1, 2), &deps, (98, 81), bound).unwrap();
        assert!(r.cone_pruned > 0, "certificate must fire: {r:?}");
        assert!(r.cone_pruned <= r.nodes_pruned);
        let (row, obj) = exhaustive((1, 2), &deps, (98, 81), bound).unwrap();
        assert_eq!(r.objective, obj);
        assert_eq!(r.row, row);
        // The only coprime rows on the certified line are ±(1,0).
        assert_eq!(r.row, (1, 0));
    }

    #[test]
    fn full_rank_cone_prunes_nothing_extra() {
        // Example 8's cone is full-rank, so the certificate must stay
        // inert and the node counts must match the pre-certificate search.
        let deps = example8_deps();
        let r = unlimited_bnb((2, 5), &deps, (25, 10), 6).unwrap();
        assert_eq!(r.cone_pruned, 0);
    }

    /// Satellite: the cone-certificate pruning must never change the
    /// optimum on any repository kernel (2-deep nests; the §4.2 search
    /// family is two-level).
    #[test]
    fn cone_pruning_agrees_with_exhaustive_on_kernels() {
        let sources = [
            ("example6", include_str!("../../../kernels/example6.loop")),
            ("example8", include_str!("../../../kernels/example8.loop")),
            ("matmult", include_str!("../../../kernels/matmult.loop")),
            ("pipeline", include_str!("../../../kernels/pipeline.loop")),
            ("rasta_flt", include_str!("../../../kernels/rasta_flt.loop")),
            ("sor", include_str!("../../../kernels/sor.loop")),
        ];
        let mut checked = 0;
        for (name, src) in sources {
            let program =
                loopmem_ir::parse_program(src).unwrap_or_else(|e| panic!("{name}: {e:?}"));
            for nest in program.nests() {
                if nest.depth() != 2 {
                    continue;
                }
                let Some(vr) = nest.var_ranges() else {
                    continue;
                };
                let extents = (vr[0].1 - vr[0].0 + 1, vr[1].1 - vr[1].0 + 1);
                if extents.0 <= 1 || extents.1 <= 1 {
                    continue;
                }
                let deps = analyze(nest);
                for alpha in [(1i64, 0i64), (0, 1), (2, 5), (1, -2), (3, 1)] {
                    for bound in [3i64, 5] {
                        let bnb = unlimited_bnb(alpha, &deps, extents, bound);
                        let ex = exhaustive(alpha, &deps, extents, bound);
                        match (&bnb, &ex) {
                            (Some(r), Some((_, obj))) => assert_eq!(
                                r.objective, *obj,
                                "{name} alpha {alpha:?} bound {bound}"
                            ),
                            (None, None) => {}
                            _ => panic!(
                                "{name} alpha {alpha:?} bound {bound}: bnb {bnb:?} vs exhaustive {ex:?}"
                            ),
                        }
                        checked += 1;
                    }
                }
            }
        }
        assert!(
            checked >= 30,
            "expected to exercise several kernels, got {checked}"
        );
    }
}
