//! Governance semantics of the core search entry points: the optimizer
//! and branch-and-bound must degrade deterministically, and a poisoned
//! nest inside a program must not sink the whole batch search.

use loopmem_core::{try_branch_and_bound, Session};
use loopmem_dep::analyze;
use loopmem_ir::{parse, parse_program, AnalysisError, TripReason};
use loopmem_sim::{AnalysisBudget, CancelToken};

fn example8() -> loopmem_ir::LoopNest {
    parse("array X[200]\nfor i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }")
        .unwrap()
}

#[test]
fn unlimited_governed_search_matches_legacy() {
    // The removed ungoverned search answered 44 -> 21 here (its answers
    // are pinned by tests/golden/session_answers.txt at the workspace
    // root); a budget that never trips must not change the answer.
    let nest = example8();
    let unlimited = Session::new()
        .optimize(&nest)
        .expect("unlimited governed search succeeds");
    let capped = Session::new()
        .budget(AnalysisBudget::unlimited().with_max_iterations(1_000_000))
        .optimize(&nest)
        .expect("a generous cap never trips");
    assert_eq!(unlimited.mws_before, 44);
    assert_eq!(unlimited.mws_after, 21, "the paper's actual minimum MWS");
    assert_eq!(capped.transform, unlimited.transform);
    assert_eq!(capped.evaluated, unlimited.evaluated);
}

#[test]
fn tripped_search_returns_the_original_nest_bounds_deterministically() {
    // The candidate sweep shares one cumulative iteration budget; which
    // candidate observes the trip is scheduling-dependent, but the error
    // value must not be: it always carries the ORIGINAL nest's analytic
    // bounds, so every thread count returns the identical error.
    let nest = example8();
    let budget = AnalysisBudget::unlimited().with_max_iterations(40);
    let errors: Vec<AnalysisError> = [1usize, 2, 4]
        .iter()
        .map(|&t| {
            Session::new()
                .threads(t)
                .budget(budget.clone())
                .optimize(&nest)
                .unwrap_err()
        })
        .collect();
    let AnalysisError::Exhausted { reason, partial } = &errors[0] else {
        panic!("expected Exhausted, got {:?}", errors[0]);
    };
    assert_eq!(*reason, TripReason::MaxIterations);
    // Validity: the true optimal-order MWS (21) and the original-order
    // MWS (44) both lie inside the degraded answer.
    assert!(partial.lower <= 21 && 44 <= partial.upper);
    assert_eq!(errors[0], errors[1]);
    assert_eq!(errors[0], errors[2]);
}

#[test]
fn cancelled_branch_and_bound_brackets_the_optimum() {
    let deps = analyze(&example8());
    let exact = try_branch_and_bound((2, 5), &deps, (25, 10), 6, &AnalysisBudget::unlimited())
        .expect("an unlimited budget never trips")
        .expect("feasible row exists")
        .objective;
    let token = CancelToken::new();
    token.cancel();
    let budget = AnalysisBudget::unlimited().with_cancel_token(token);
    let err = try_branch_and_bound((2, 5), &deps, (25, 10), 6, &budget).unwrap_err();
    let AnalysisError::Exhausted { reason, partial } = err else {
        panic!("expected Exhausted");
    };
    assert_eq!(reason, TripReason::Cancelled);
    // The objective bound brackets the true optimum (22).
    let exact_u64 = exact.ceil() as u64;
    assert!(partial.lower <= exact_u64 && exact_u64 <= partial.upper);
}

#[test]
fn bnb_invalid_arguments_do_not_panic() {
    let deps = analyze(&example8());
    let unlimited = AnalysisBudget::unlimited();
    for (extents, bound) in [((25, 10), 0), ((25, 10), -3), ((0, 10), 6), ((25, -1), 6)] {
        let err = try_branch_and_bound((2, 5), &deps, extents, bound, &unlimited).unwrap_err();
        assert!(
            matches!(err, AnalysisError::Invalid { .. }),
            "expected Invalid for extents {extents:?} bound {bound}, got {err:?}"
        );
    }
}

#[test]
fn program_search_skips_the_poisoned_nest() {
    // Nest 1 panics during simulation (bound overflow); the batch search
    // must keep nest 0's improvement and report nest 1 as failed.
    let program = parse_program(
        "array X[200]\narray B[10]\n\
         for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }\n\
         for i = 800 to 900 { for j = i + 9223372036854775000 to 9223372036854775807 { B[1]; } }",
    )
    .unwrap();
    let opt = Session::new()
        .optimize_program(&program)
        .expect("batch search itself must not fail");
    assert_eq!(opt.per_nest.len(), 2);
    assert!(opt.per_nest[0].is_ok(), "healthy nest still optimizes");
    assert!(
        matches!(
            opt.per_nest[1],
            Err(AnalysisError::NestPanicked { nest: 1, .. })
        ),
        "poisoned nest reports NestPanicked, got {:?}",
        opt.per_nest[1]
    );
    assert!(opt.mws_before.lower <= opt.mws_before.upper);
    assert!(opt.mws_after.upper <= opt.mws_before.upper);
}
