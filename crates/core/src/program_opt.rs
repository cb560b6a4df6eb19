//! Program-level optimization (multi-nest extension).
//!
//! Each nest is transformed with the §4 search; the program is then
//! re-simulated as a whole, because inter-nest liveness (values crossing a
//! nest boundary) caps what loop reordering alone can achieve — a
//! producer/consumer pair needs fusion, not reordering, to shrink its
//! boundary set. The result reports both numbers so the gap is visible.
//! [`Session::optimize_program`](crate::Session::optimize_program) is the
//! entry point.

use crate::optimize::{try_minimize_mws_tracked, SearchMode};
use loopmem_ir::{AnalysisError, Bounds, Program};
use loopmem_sim::{shard_map, try_simulate_program_tracked, AnalysisBudget, BudgetTracker};

/// Outcome of a governed program optimization: every nest either improved
/// or kept its original form with a typed reason, and the whole-program
/// numbers are bounds that stay honest when some nest degraded.
#[derive(Debug)]
pub struct GovernedProgramOptimization {
    /// The program with every accepted per-nest transformation applied
    /// (nests whose search failed, or whose acceptance check could not be
    /// completed exactly, keep their original form).
    pub transformed: Program,
    /// Whole-program MWS bounds before optimization (a point interval
    /// when the baseline simulation was exact for every nest).
    pub mws_before: Bounds,
    /// Whole-program MWS bounds of `transformed`.
    pub mws_after: Bounds,
    /// Per nest, in program order: `(before, after)` single-nest windows
    /// of its §4 search, or why that nest's search was abandoned.
    pub per_nest: Vec<Result<(u64, u64), AnalysisError>>,
}

/// Runs the §4 search on every nest independently and re-evaluates the
/// whole program. A per-nest win can shift a boundary, so each nest's
/// transformation is kept greedily, in execution order, only when the
/// whole program does not regress.
///
/// The pipeline — baseline simulation, per-nest searches, greedy accept
/// re-simulations — runs under one [`BudgetTracker`] (one deadline, one
/// cumulative iteration count, one search-node count). Per-nest failures
/// are contained: a nest whose search trips the budget, overflows, or
/// panics keeps its original form and reports the typed error in
/// `per_nest` while every other nest completes. A candidate is accepted
/// only when its program re-simulation is exact and does not worsen the
/// current upper bound, so `mws_after.upper <= mws_before.upper` always
/// holds. The top-level `Err` is reserved for whole-program failures of
/// the *baseline* simulation (e.g. the global table fold exceeding the
/// budget's table cap).
///
/// The per-nest searches are independent (each sees its nest in original
/// form), so they shard across `threads` workers of [`shard_map`] (a
/// single nest gets every thread for its own candidate evaluation); the
/// accept pass is serial, so the result is bit-identical for every
/// `threads` value. Under an iteration cap or an injected fault the
/// searches would race to reach the trip's position in the shared
/// counter, so they run one after another in program order instead, each
/// with the whole pool, like the program engine's nests.
pub(crate) fn governed_optimize_program(
    program: &Program,
    mode: SearchMode,
    threads: usize,
    budget: &AnalysisBudget,
) -> Result<GovernedProgramOptimization, AnalysisError> {
    let tracker = BudgetTracker::new(budget);
    let baseline = try_simulate_program_tracked(program, threads, &tracker)?;
    let mws_before = baseline.mws_bounds;

    let nests = program.nests();
    let (workers, per_nest) = if nests.len() == 1 || tracker.trips_on_count() {
        (1, threads)
    } else {
        (threads.max(1), 1)
    };
    let searches = shard_map(nests.len(), workers, |k| {
        try_minimize_mws_tracked(k, &nests[k], mode, per_nest, &tracker)
    });

    let mut current = program.clone();
    let mut current_bounds = mws_before;
    let mut per_nest = Vec::with_capacity(program.len());
    for (k, search) in searches.into_iter().enumerate() {
        let opt = match search {
            Ok(o) => o,
            Err(e) => {
                per_nest.push(Err(e));
                continue;
            }
        };
        per_nest.push(Ok((opt.mws_before, opt.mws_after)));
        let Ok(candidate) = current.with_nest(k, opt.transformed) else {
            continue; // transformation changed the array table: reject
        };
        // Keep the per-nest transformation only when the whole program
        // verifiably does not regress: the governed re-simulation must be
        // exact (a degraded candidate cannot be compared) and its MWS must
        // not exceed the current upper bound.
        if let Ok(gov) = try_simulate_program_tracked(&candidate, threads, &tracker) {
            if gov.all_exact() && gov.mws_bounds.upper <= current_bounds.upper {
                current = candidate;
                current_bounds = gov.mws_bounds;
            }
        }
    }
    Ok(GovernedProgramOptimization {
        transformed: current,
        mws_before,
        mws_after: current_bounds,
        per_nest,
    })
}

#[cfg(test)]
mod tests {
    use crate::{SearchMode, Session};
    use loopmem_ir::{parse_program, AnalysisError};

    #[test]
    fn analysis_reports_boundary_sets() {
        let p = parse_program(
            "array A[8][8]\narray B[8][8]\narray C[8][8]\n\
             for i = 1 to 8 { for j = 1 to 8 { A[i][j] = B[i][j]; } }\n\
             for i = 1 to 8 { for j = 1 to 8 { C[i][j] = A[i][j] + A[i][j]; } }",
        )
        .unwrap();
        let sim = Session::new().simulate_program(&p).unwrap().sim;
        assert_eq!(p.default_memory(), 192);
        assert_eq!(sim.boundary_live, vec![64]);
        assert!(sim.mws_total >= 64);
    }

    #[test]
    fn optimization_never_regresses_the_program() {
        let p = parse_program(
            "array A[24][24]\narray B[24][24]\n\
             for i = 2 to 24 { for j = 1 to 24 { A[i][j] = A[i-1][j] + A[i][j]; } }\n\
             for i = 1 to 24 { for j = 1 to 24 { B[i][j] = B[i][j] + 1; } }",
        )
        .unwrap();
        let o = Session::new().optimize_program(&p).unwrap();
        assert!(
            o.mws_after.upper <= o.mws_before.upper,
            "{} -> {}",
            o.mws_before,
            o.mws_after
        );
        // The stencil nest improves on its own.
        let (before, after) = o.per_nest[0].clone().unwrap();
        assert!(after < before);
    }

    #[test]
    fn sharded_optimize_matches_serial_for_all_thread_counts() {
        // One stencil, one triangular nest, one Example-8-style reuse
        // kernel — exercised at t ∈ {2, 4} and the default against t = 1.
        let p = parse_program(
            "array A[24][24]\narray X[200]\n\
             for i = 2 to 24 { for j = 1 to 24 { A[i][j] = A[i-1][j] + A[i][j]; } }\n\
             for i = 1 to 24 { for j = i to 24 { A[i][j] = A[j][i]; } }\n\
             for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
        )
        .unwrap();
        let serial = Session::new().threads(1).optimize_program(&p).unwrap();
        assert!(serial.mws_before.is_exact() && serial.mws_after.is_exact());
        for session in [
            Session::new().threads(2),
            Session::new().threads(4),
            Session::new(),
        ] {
            let par = session.optimize_program(&p).unwrap();
            assert_eq!(par.mws_before, serial.mws_before);
            assert_eq!(par.mws_after, serial.mws_after);
            assert_eq!(par.per_nest, serial.per_nest);
            assert_eq!(par.transformed, serial.transformed);
        }
    }

    #[test]
    fn sharded_optimize_propagates_earliest_error() {
        // Li–Pingali fails on Example 8 (no legal completion): every nest
        // reports that error in its own slot and keeps its form, at every
        // thread count.
        let p = parse_program(
            "array X[200]\narray Y[200]\n\
             for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }\n\
             for i = 1 to 25 { for j = 1 to 10 { Y[2i + 5j + 1] = Y[2i + 5j + 5]; } }",
        )
        .unwrap();
        let no_legal = AnalysisError::Invalid {
            message: "no legal transformation in the search space".into(),
        };
        for threads in [1, 4] {
            let o = Session::new()
                .threads(threads)
                .search_mode(SearchMode::LiPingali)
                .optimize_program(&p)
                .unwrap();
            assert_eq!(
                o.per_nest,
                vec![Err(no_legal.clone()), Err(no_legal.clone())]
            );
            assert_eq!(o.transformed, p);
            assert_eq!(o.mws_after, o.mws_before);
        }
    }

    #[test]
    fn analysis_reports_per_nest_mws() {
        let p = parse_program(
            "array A[16][16]\n\
             for i = 2 to 16 { for j = 1 to 16 { A[i][j] = A[i-1][j]; } }\n\
             for i = 1 to 16 { for j = 1 to 16 { A[i][j] = A[i][j] + 1; } }",
        )
        .unwrap();
        let sim = Session::new().simulate_program(&p).unwrap().sim;
        assert_eq!(sim.per_nest_mws.len(), 2);
        assert!((16..=17).contains(&sim.per_nest_mws[0]));
        assert_eq!(sim.per_nest_mws[1], 0, "single-touch nest has no window");
    }

    #[test]
    fn boundary_liveness_caps_reordering_gains() {
        // Producer/consumer of a whole array: no legal reordering can
        // shrink the 36-word boundary; the optimizer must report that
        // honestly.
        let p = parse_program(
            "array A[6][6]\narray B[6][6]\narray C[6][6]\n\
             for i = 1 to 6 { for j = 1 to 6 { A[i][j] = B[i][j]; } }\n\
             for i = 1 to 6 { for j = 1 to 6 { C[i][j] = A[i][j]; } }",
        )
        .unwrap();
        let o = Session::new().optimize_program(&p).unwrap();
        assert!(
            o.mws_after.lower >= 36,
            "boundary set is irreducible by reordering"
        );
    }
}
