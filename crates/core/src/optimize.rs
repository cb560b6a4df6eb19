//! Window-minimizing transformation search (§4 of the paper).
//!
//! The optimizer looks for a legal unimodular transformation that minimizes
//! the maximum window size. Three search modes reproduce the paper's
//! comparison:
//!
//! * [`SearchMode::Compound`] — the paper's technique. For 2-deep nests it
//!   enumerates coprime leading rows `(a, b)` inside a coefficient bound
//!   (the integer equivalent of §4.2's branch and bound: the objective is
//!   evaluated exactly on every feasible point), keeps the rows that admit
//!   a tileable unimodular completion, ranks completions by the closed-form
//!   objective, and re-evaluates the best few *exactly* with the simulator.
//!   Deeper nests combine signed permutations with §4.3's access-matrix
//!   completions.
//! * [`SearchMode::InterchangeReversal`] — the Eisenbeis et al. baseline:
//!   only signed permutation matrices (interchange + reversal).
//! * [`SearchMode::LiPingali`] — the Li–Pingali baseline: the leading rows
//!   come from the data access matrix (± sign); when no legal completion
//!   exists the search *fails*, reproducing the paper's Example 8 claim.
//!
//! [`Session::optimize`](crate::Session::optimize) is the entry point:
//! every search is governed by the session's budget.

use crate::mws::{lex_delay, two_level_estimate};
use crate::transform::apply_transform;
use loopmem_dep::legality::{is_legal, is_tileable, row_tileable};
use loopmem_dep::uniform::uniform_groups;
use loopmem_dep::{analyze, DependenceSet};
use loopmem_ir::LoopNest;
use loopmem_ir::{AnalysisError, TripReason};
use loopmem_linalg::gcd::{extended_gcd, gcd_i64};
use loopmem_linalg::{complete_unimodular_rows, IMat};
use loopmem_obs::{EventKind, Phase, TraceEvent};
use loopmem_sim::{panic_message, shard_map, try_simulate_tracked, BudgetTracker};
use std::collections::{BTreeSet, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Which transformation space to search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchMode {
    /// The paper's compound-transformation search.
    Compound {
        /// Bound on `|a|, |b|` (and completion coefficients) for 2-deep
        /// nests. 6 covers every kernel in the paper.
        max_coeff: i64,
        /// How many top-ranked candidates to re-evaluate exactly with the
        /// simulator.
        simulate_top: usize,
    },
    /// Interchange + reversal only (Eisenbeis et al. baseline).
    InterchangeReversal,
    /// Li–Pingali access-matrix completion baseline.
    LiPingali,
}

impl Default for SearchMode {
    fn default() -> Self {
        SearchMode::Compound {
            max_coeff: 6,
            simulate_top: 12,
        }
    }
}

/// A successful optimization.
#[derive(Clone, Debug)]
pub struct Optimization {
    /// The chosen unimodular transformation.
    pub transform: IMat,
    /// The transformed nest.
    pub transformed: LoopNest,
    /// Exact MWS of the original nest.
    pub mws_before: u64,
    /// Exact MWS of the transformed nest.
    pub mws_after: u64,
    /// Number of legal candidates the search considered.
    pub candidates_considered: usize,
    /// Every candidate the search exactly simulated, as
    /// `(transform, exact MWS)` pairs in candidate-rank order — the
    /// evidence frontier behind the winner's minimality claim, exported
    /// into optimality certificates (see [`crate::cert`]).
    pub evaluated: Vec<(IMat, u64)>,
}

/// `(hits, misses)` of an optimizer simulation memo. The optimizer keeps
/// no process-wide state, so both are always 0; the function remains for
/// callers that still record the pair.
pub fn memo_stats() -> (u64, u64) {
    (0, 0)
}

// ------------------------------------------------------- governed search --

/// The search's degradation payload: closed-form §3 MWS bounds when they
/// apply, the union-box enclosure otherwise. Always computed on the
/// *original* nest — the identity candidate makes the search's answer
/// subject to the same bounds, and a payload that never depends on which
/// candidate tripped keeps the governed search deterministic across
/// thread counts and steal orders.
fn exhausted(nest: &LoopNest, reason: TripReason) -> AnalysisError {
    AnalysisError::Exhausted {
        reason,
        partial: crate::distinct::analytic_mws_bounds(nest),
    }
}

/// Rebases any `Exhausted` payload onto the original nest's analytical
/// bounds (see [`exhausted`]); other errors pass through.
fn normalize_error(nest: &LoopNest, e: AnalysisError) -> AnalysisError {
    match e {
        AnalysisError::Exhausted { reason, .. } => exhausted(nest, reason),
        other => other,
    }
}

/// Exact iteration count of a rectangular nest (`None` when bounds are not
/// rectangular). Cheap — used for budget pre-flight, not execution.
fn exact_iteration_count(nest: &LoopNest) -> Option<u128> {
    nest.rectangular_ranges().map(|rs| {
        rs.iter().fold(1u128, |acc, &(lo, hi)| {
            acc.saturating_mul((i128::from(hi) - i128::from(lo) + 1).max(0) as u128)
        })
    })
}

/// The §4 search, behind [`Session::optimize`](crate::Session::optimize)
/// and [`Session::optimize_program`](crate::Session::optimize_program).
/// It never panics and respects `tracker`, which governs the *whole*
/// search: one deadline, one cumulative iteration count across every
/// candidate simulation, and one search node charged per candidate
/// (capped by
/// [`AnalysisBudget::with_max_search_nodes`](loopmem_sim::AnalysisBudget::with_max_search_nodes)).
///
/// The winner is chosen by `(exact MWS, candidate rank)`, so the result is
/// bit-identical for every `threads` value. On a budget trip the error
/// degrades to analytical MWS bounds on the original nest
/// ([`crate::distinct::analytic_mws_bounds`]). An empty candidate space
/// (possible for [`SearchMode::LiPingali`]) or an inapplicable
/// transformation reports [`AnalysisError::Invalid`]; contained panics
/// surface as [`AnalysisError::NestPanicked`] tagged with `nest_index`,
/// the nest's position in its program.
pub(crate) fn try_minimize_mws_tracked(
    nest_index: usize,
    nest: &LoopNest,
    mode: SearchMode,
    threads: usize,
    tracker: &BudgetTracker,
) -> Result<Optimization, AnalysisError> {
    match catch_unwind(AssertUnwindSafe(|| {
        try_minimize_impl(nest, mode, threads, tracker)
    })) {
        Ok(r) => r.map_err(|e| match e {
            // Panics contained deeper in the stack (inside a single-nest
            // simulation) report nest 0 — rebase onto the caller's index.
            AnalysisError::NestPanicked { message, .. } => AnalysisError::NestPanicked {
                nest: nest_index,
                message,
            },
            other => other,
        }),
        Err(payload) => Err(AnalysisError::NestPanicked {
            nest: nest_index,
            message: panic_message(payload),
        }),
    }
}

fn try_minimize_impl(
    nest: &LoopNest,
    mode: SearchMode,
    threads: usize,
    tracker: &BudgetTracker,
) -> Result<Optimization, AnalysisError> {
    // Pre-flight: a rectangular nest's iteration count is exact and free,
    // so refuse immediately when even one candidate simulation would blow
    // the iteration cap (unimodular transformations preserve the count).
    if let (Some(cap), Some(n)) = (tracker.max_iterations(), exact_iteration_count(nest)) {
        if n > u128::from(cap) {
            return Err(exhausted(nest, TripReason::MaxIterations));
        }
    }
    // The span is flushed only on success: on a budget trip the set of
    // candidates that completed is schedule-dependent, so nothing about
    // the failed search may reach the sink.
    let search_started = tracker.trace().map(|_| std::time::Instant::now());
    tracker.check().map_err(|r| exhausted(nest, r))?;
    let deps = analyze(nest);
    let candidates = generate_candidates(nest, &deps, mode);
    if candidates.is_empty() {
        return Err(AnalysisError::Invalid {
            message: "no legal transformation in the search space".into(),
        });
    }
    let simulate = |n: &LoopNest| -> Result<u64, AnalysisError> {
        try_simulate_tracked(n, 1, tracker).map(|s| s.mws_total)
    };
    let mws_before = simulate(nest).map_err(|e| normalize_error(nest, e))?;
    let considered = candidates.len();

    let eval_one = |t: &IMat| -> Result<u64, AnalysisError> {
        tracker
            .charge_search_nodes(1)
            .map_err(|r| exhausted(nest, r))?;
        let out = apply_transform(nest, t).map_err(|e| AnalysisError::Invalid {
            message: e.to_string(),
        })?;
        simulate(&out)
    };
    // Results land in rank order whatever the schedule.
    let workers = threads.max(1).min(candidates.len());
    let evals = shard_map(candidates.len(), workers, |rank| {
        eval_one(&candidates[rank])
    });

    // Budget trips dominate other failures (once the shared counters trip,
    // *which* candidates observe it depends on scheduling — the normalized
    // error does not); among equals the earliest candidate wins.
    let first_err = |trip: bool| {
        evals.iter().find_map(|r| match r {
            Err(e) if matches!(e, AnalysisError::Exhausted { .. }) == trip => Some(e.clone()),
            _ => None,
        })
    };
    if let Some(e) = first_err(true).or_else(|| first_err(false)) {
        return Err(normalize_error(nest, e));
    }

    let mws: Vec<u64> = evals
        .into_iter()
        .map(|r| r.expect("errors were handled above"))
        .collect();
    let (mws_after, rank) = mws
        .iter()
        .enumerate()
        .map(|(rank, &m)| (m, rank))
        .min()
        .expect("candidates were non-empty");
    let evaluated: Vec<(IMat, u64)> = candidates.into_iter().zip(mws).collect();
    let transform = evaluated[rank].0.clone();
    let transformed = apply_transform(nest, &transform).map_err(|e| AnalysisError::Invalid {
        message: e.to_string(),
    })?;
    if let Some(sink) = tracker.trace() {
        let micros = search_started.map_or(0, |s| s.elapsed().as_micros() as u64);
        sink.record_all(vec![
            TraceEvent {
                phase: Phase::Search,
                nest: None,
                ord: (0, 0),
                kind: EventKind::SpanBegin { label: "search" },
            },
            TraceEvent {
                phase: Phase::Search,
                nest: None,
                ord: (u64::MAX, 0),
                kind: EventKind::SpanEnd {
                    label: "search",
                    micros,
                    charged: considered as u64,
                },
            },
        ]);
    }
    Ok(Optimization {
        transform,
        transformed,
        mws_before,
        mws_after,
        candidates_considered: considered,
        evaluated,
    })
}

// ------------------------------------------------------------ candidates --

/// The mode's full (ranked, truncated) candidate list. The identity is
/// always a member for [`SearchMode::Compound`] and
/// [`SearchMode::InterchangeReversal`]; [`SearchMode::LiPingali`] may come
/// back empty.
fn generate_candidates(nest: &LoopNest, deps: &DependenceSet, mode: SearchMode) -> Vec<IMat> {
    let n = nest.depth();
    match mode {
        SearchMode::Compound {
            max_coeff,
            simulate_top,
        } => {
            let mut cands = if n == 2 {
                two_level_candidates(deps, max_coeff)
            } else {
                deep_candidates(nest, deps)
            };
            rank_and_truncate(nest, deps, &mut cands, simulate_top);
            cands
        }
        SearchMode::InterchangeReversal => {
            let mut cands: Vec<IMat> = signed_permutations(n)
                .into_iter()
                .filter(|t| is_legal(t, deps))
                .collect();
            rank_and_truncate(nest, deps, &mut cands, 16);
            cands
        }
        SearchMode::LiPingali => li_pingali_candidates(nest, deps),
    }
}

/// 2-deep compound candidates: coprime tileable leading rows completed to
/// tileable unimodular matrices (§4.2). The identity is always included.
fn two_level_candidates(deps: &DependenceSet, max_coeff: i64) -> Vec<IMat> {
    let mut out = vec![IMat::identity(2)];
    for a in -max_coeff..=max_coeff {
        for b in -max_coeff..=max_coeff {
            if (a, b) == (0, 0) || gcd_i64(a, b) != 1 {
                continue;
            }
            if !row_tileable(&[a, b], deps) {
                continue;
            }
            if let Some(t) = complete_tileable(a, b, deps, max_coeff) {
                if !out.contains(&t) {
                    out.push(t);
                }
            }
        }
    }
    out
}

/// Completes a tileable leading row `(a, b)` with a second row `(c, d)`
/// such that `a·d − b·c = ±1` and `(c, d)` is itself tileable. Both
/// determinant signs must be tried: for Example 8's optimum `(2, 3)`,
/// every `det = +1` completion has `3c − 2d = −1` (never tileable), while
/// `det = −1` admits the paper's actual transformation `[[2,3],[1,1]]`.
/// Among each family `(c₀ + t·a, d₀ + t·b)`, the smallest-coefficient
/// member wins.
fn complete_tileable(a: i64, b: i64, deps: &DependenceSet, max_coeff: i64) -> Option<IMat> {
    let (g, x, y) = extended_gcd(a, b);
    debug_assert_eq!(g, 1);
    // a·x + b·y = 1: (−y, x) gives det +1, (y, −x) gives det −1.
    let mut best: Option<(i64, i64, i64)> = None; // (score, c, d)
    for (c0, d0) in [(-y, x), (y, -x)] {
        for t in -(3 * max_coeff + 3)..=(3 * max_coeff + 3) {
            let (c, d) = (c0 + t * a, d0 + t * b);
            if !row_tileable(&[c, d], deps) {
                continue;
            }
            let score = c.abs() + d.abs();
            if best.is_none_or(|(s, _, _)| score < s) {
                best = Some((score, c, d));
            }
        }
    }
    let (_, c, d) = best?;
    let t = IMat::from_rows(&[vec![a, b], vec![c, d]]);
    debug_assert!(is_tileable(&t, deps));
    Some(t)
}

/// Candidates for nests deeper than two: signed permutations, §4.3's
/// access-matrix completions, and skew-composed permutations, all
/// filtered for legality, in first-generated order. A set dedups them,
/// so each distinct matrix is checked for legality once.
fn deep_candidates(nest: &LoopNest, deps: &DependenceSet) -> Vec<IMat> {
    let n = nest.depth();
    let mut out = vec![IMat::identity(n)];
    let mut seen: HashSet<IMat> = out.iter().cloned().collect();
    let mut offer = |t: IMat, out: &mut Vec<IMat>| {
        if !seen.contains(&t) {
            seen.insert(t.clone());
            if is_legal(&t, deps) {
                out.push(t);
            }
        }
    };
    for t in signed_permutations(n) {
        offer(t, &mut out);
    }
    // §4.3: leading rows = data access matrix rows, so the innermost
    // transformed loop carries the reuse.
    for r in nest.refs() {
        if r.matrix.nrows() >= n {
            continue;
        }
        for rows in access_row_variants(&r.matrix) {
            if let Some(t) = complete_unimodular_rows(&rows) {
                offer(t, &mut out);
            }
        }
    }
    // Compound candidates: an elementary skew composed with each signed
    // permutation. This reaches orders like "wavefront over a permuted
    // nest" that neither family contains alone; the analytic ranking in
    // `rank_and_truncate` keeps the exact re-simulation budget fixed.
    if n <= 4 {
        let base = out.clone();
        for skew in elementary_skews(n) {
            for p in &base {
                offer(&skew * p, &mut out);
            }
        }
    }
    out
}

/// Elementary skew matrices `I + k·e_i·e_jᵀ` for `i ≠ j`, `k ∈ {−2…2}`.
fn elementary_skews(n: usize) -> Vec<IMat> {
    let mut out = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            for k in [-2i64, -1, 1, 2] {
                let mut m = IMat::identity(n);
                m[(i, j)] = k;
                out.push(m);
            }
        }
    }
    out
}

/// Row orderings/signs of an access matrix worth trying as leading rows.
fn access_row_variants(m: &IMat) -> Vec<IMat> {
    let rows: Vec<Vec<i64>> = (0..m.nrows()).map(|i| m.row(i).to_vec()).collect();
    let neg = |r: &Vec<i64>| r.iter().map(|&x| -x).collect::<Vec<i64>>();
    let mut out = vec![IMat::from_rows(&rows)];
    if rows.len() == 2 {
        out.push(IMat::from_rows(&[rows[1].clone(), rows[0].clone()]));
        out.push(IMat::from_rows(&[neg(&rows[0]), rows[1].clone()]));
        out.push(IMat::from_rows(&[rows[0].clone(), neg(&rows[1])]));
    } else if rows.len() == 1 {
        out.push(IMat::from_rows(&[neg(&rows[0])]));
    }
    out
}

/// All `n! · 2ⁿ` signed permutation matrices for `n ≤ 4`; permutations
/// plus single-loop reversals beyond that (the full set would explode).
fn signed_permutations(n: usize) -> Vec<IMat> {
    let mut perms = Vec::new();
    let mut idx: Vec<usize> = (0..n).collect();
    permute(&mut idx, 0, &mut perms);
    let mut out = Vec::new();
    if n <= 4 {
        for p in &perms {
            for signs in 0..(1u32 << n) {
                let mut m = IMat::zeros(n, n);
                for (row, &col) in p.iter().enumerate() {
                    m[(row, col)] = if signs & (1 << row) != 0 { -1 } else { 1 };
                }
                out.push(m);
            }
        }
    } else {
        for p in &perms {
            let mut m = IMat::zeros(n, n);
            for (row, &col) in p.iter().enumerate() {
                m[(row, col)] = 1;
            }
            out.push(m.clone());
            for flip in 0..n {
                let mut f = m.clone();
                for j in 0..n {
                    f[(flip, j)] = -f[(flip, j)];
                }
                out.push(f);
            }
        }
    }
    out
}

fn permute(idx: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
    if k == idx.len() {
        out.push(idx.clone());
        return;
    }
    for i in k..idx.len() {
        idx.swap(k, i);
        permute(idx, k + 1, out);
        idx.swap(k, i);
    }
}

/// Li–Pingali candidates: transformations whose leading row(s) are the
/// (±) data access matrix, completed to unimodular and *then* checked for
/// legality. Empty when every completion breaks a dependence.
fn li_pingali_candidates(nest: &LoopNest, deps: &DependenceSet) -> Vec<IMat> {
    let mut out = Vec::new();
    for r in nest.refs() {
        if r.matrix.nrows() >= nest.depth() {
            continue;
        }
        for rows in access_row_variants(&r.matrix) {
            if let Some(t) = complete_unimodular_rows(&rows) {
                if is_legal(&t, deps) && !out.contains(&t) {
                    out.push(t);
                }
            }
        }
    }
    out
}

// --------------------------------------------------------------- ranking --

/// Ranks candidates by the closed-form MWS estimate and keeps the best
/// `keep` (the identity always survives as the do-nothing baseline).
fn rank_and_truncate(nest: &LoopNest, deps: &DependenceSet, cands: &mut Vec<IMat>, keep: usize) {
    if cands.len() <= keep {
        return;
    }
    let objective = RankingObjective::new(nest, deps);
    let mut scratch = [Vec::new(), Vec::new()];
    let mut scored: Vec<(i64, IMat)> = cands
        .drain(..)
        .map(|t| (objective.score(&t, &mut scratch), t))
        .collect();
    scored.sort_by_key(|(s, _)| *s);
    let id = IMat::identity(nest.depth());
    let mut kept: Vec<IMat> = scored.into_iter().take(keep).map(|(_, t)| t).collect();
    if !kept.contains(&id) {
        kept.push(id);
    }
    *cands = kept;
}

/// Cheap closed-form objective used only for ranking: per uniformly
/// generated group, eq. (2) where it applies (2-deep, 1-D arrays), the
/// lexicographic-delay estimate otherwise, summed over groups. Everything
/// that does not depend on the candidate is computed once per search, so
/// scoring a candidate allocates nothing.
struct RankingObjective {
    /// Extents of the original nest (16 per loop when not rectangular).
    extents: Vec<i64>,
    terms: Vec<GroupTerm>,
}

/// One uniformly generated group's share of the [`RankingObjective`].
enum GroupTerm {
    /// Eq. (2) for the group's one-row access matrix.
    TwoLevel((i64, i64)),
    /// [`crate::mws::lex_delay_estimate`] over the *distinct* dependence
    /// distances of the group's array. The estimate is a maximum over
    /// distances, so duplicates never change it.
    LexDelay(Vec<Vec<i64>>),
}

impl RankingObjective {
    fn new(nest: &LoopNest, deps: &DependenceSet) -> Self {
        let n = nest.depth();
        let extents: Vec<i64> = nest
            .rectangular_ranges()
            .map(|rs| rs.iter().map(|&(lo, hi)| hi - lo + 1).collect())
            .unwrap_or_else(|| vec![16; n]);
        let terms = uniform_groups(nest)
            .into_iter()
            .filter_map(|g| {
                if n == 2 && g.matrix.nrows() == 1 {
                    return Some(GroupTerm::TwoLevel((g.matrix[(0, 0)], g.matrix[(0, 1)])));
                }
                let distances: BTreeSet<&[i64]> = deps
                    .iter()
                    .filter(|d| d.array == g.array)
                    .map(|d| d.distance.as_slice())
                    .collect();
                (!distances.is_empty()).then(|| {
                    GroupTerm::LexDelay(distances.into_iter().map(<[i64]>::to_vec).collect())
                })
            })
            .collect();
        RankingObjective { extents, terms }
    }

    /// The objective at transformation `t`. `scratch` holds the
    /// transformed extents and one transformed distance, reused across
    /// calls.
    fn score(&self, t: &IMat, scratch: &mut [Vec<i64>; 2]) -> i64 {
        let n = self.extents.len();
        let [t_extents, td] = scratch;
        // Extents of the transformed space, over-approximated per row.
        t_extents.clear();
        t_extents.extend((0..n).map(|k| {
            1 + (0..n)
                .map(|j| t[(k, j)].abs() * (self.extents[j] - 1))
                .sum::<i64>()
        }));
        let mut total = 0i64;
        for term in &self.terms {
            total += match term {
                GroupTerm::TwoLevel(alpha) => two_level_estimate(
                    *alpha,
                    (t[(0, 0)], t[(0, 1)]),
                    (self.extents[0], self.extents[1]),
                ),
                GroupTerm::LexDelay(distances) => {
                    let mut best = 0i64;
                    for d in distances {
                        td.clear();
                        td.extend((0..n).map(|k| -> i64 {
                            t.row(k)
                                .iter()
                                .zip(d)
                                .map(|(&a, &b)| (a as i128) * (b as i128))
                                .sum::<i128>()
                                .try_into()
                                .expect("mul_vec overflow")
                        }));
                        best = best.max(lex_delay(td, t_extents));
                    }
                    best + 1
                }
            };
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;
    use loopmem_ir::parse;

    fn search(nest: &LoopNest, mode: SearchMode) -> Result<Optimization, AnalysisError> {
        Session::new().search_mode(mode).optimize(nest)
    }

    fn example7() -> LoopNest {
        parse("array X[100]\nfor i = 1 to 20 { for j = 1 to 30 { X[2i - 3j]; } }").unwrap()
    }

    fn example8() -> LoopNest {
        parse(
            "array X[200]\n\
             for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
        )
        .unwrap()
    }

    #[test]
    fn example7_compound_reaches_one() {
        let opt = search(&example7(), SearchMode::default()).unwrap();
        assert_eq!(opt.mws_after, 1, "paper: cost reduced to 1");
        assert_eq!(opt.mws_before, 86); // exact (paper's metric says 89)
    }

    #[test]
    fn example7_interchange_reversal_baseline() {
        let opt = search(&example7(), SearchMode::InterchangeReversal).unwrap();
        // Best interchange+reversal order: exact MWS 34 (paper's cost
        // metric reports 36); far worse than the compound result of 1.
        assert_eq!(opt.mws_after, 34);
    }

    #[test]
    fn example8_compound_reaches_21() {
        let opt = search(&example8(), SearchMode::default()).unwrap();
        assert_eq!(opt.mws_after, 21, "paper's actual minimum MWS");
        assert_eq!(opt.mws_before, 44); // formula says 50
    }

    #[test]
    fn example8_li_pingali_fails() {
        // The paper: "Li and Pingali's technique will not find any partial
        // transformation that can be completed to a legal transformation."
        assert_eq!(
            search(&example8(), SearchMode::LiPingali).unwrap_err(),
            AnalysisError::Invalid {
                message: "no legal transformation in the search space".into()
            }
        );
    }

    #[test]
    fn example8_interchange_reversal_cannot_improve() {
        // Paper: "A combination of reversal and interchange does not
        // change the maximum window size from 50" (exact: 44).
        let opt = search(&example8(), SearchMode::InterchangeReversal).unwrap();
        assert_eq!(opt.mws_after, opt.mws_before);
        assert_eq!(opt.mws_after, 44);
    }

    #[test]
    fn example7_li_pingali_succeeds() {
        // Example 7 has only an input dependence; the access row (2,-3)
        // completes legally and collapses the window.
        let opt = search(&example7(), SearchMode::LiPingali).unwrap();
        assert_eq!(opt.mws_after, 1);
    }

    #[test]
    fn example10_deep_search_collapses_window() {
        let nest = parse(
            "array A[61][51]\n\
             for i = 1 to 10 { for j = 1 to 20 { for k = 1 to 30 { A[3i + k][j + k]; } } }",
        )
        .unwrap();
        let opt = search(&nest, SearchMode::default()).unwrap();
        assert_eq!(opt.mws_after, 1, "§4.3: access-matrix rows lead T");
        assert!(opt.mws_before > 400, "original window is hundreds wide");
    }

    #[test]
    fn identity_is_floor_never_worse() {
        for src in [
            "array A[20][20]\nfor i = 1 to 10 { for j = 1 to 10 { A[i][j] = A[i-1][j+2]; } }",
            "array A[40]\nfor i = 1 to 10 { for j = 1 to 10 { A[i + j] = A[i + j - 1]; } }",
        ] {
            let nest = parse(src).unwrap();
            let opt = search(&nest, SearchMode::default()).unwrap();
            assert!(opt.mws_after <= opt.mws_before, "{src}");
        }
    }

    #[test]
    fn parallel_evaluation_matches_serial() {
        for src in [
            "array X[100]\nfor i = 1 to 20 { for j = 1 to 30 { X[2i - 3j]; } }",
            "array X[200]\nfor i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
        ] {
            let nest = parse(src).unwrap();
            let serial = Session::new().threads(1).optimize(&nest).unwrap();
            for threads in [2, 4, 7] {
                let par = Session::new().threads(threads).optimize(&nest).unwrap();
                assert_eq!(par.transform, serial.transform, "{src}");
                assert_eq!(par.mws_after, serial.mws_after);
                assert_eq!(par.mws_before, serial.mws_before);
                assert_eq!(par.candidates_considered, serial.candidates_considered);
                assert_eq!(par.evaluated, serial.evaluated);
            }
        }
    }

    #[test]
    fn signed_permutation_count() {
        assert_eq!(signed_permutations(2).len(), 8);
        assert_eq!(signed_permutations(3).len(), 48);
        for t in signed_permutations(3) {
            assert_eq!(t.det().abs(), 1);
        }
    }
}
