//! Deterministic fault-injection semantics of [`loopmem_sim::FaultPlan`].
//!
//! The contracts under test:
//!
//! * injected trips fire on the cumulative charged-iteration counter, so
//!   a fault pinned to an exact `POLL_INTERVAL` boundary fires at every
//!   thread count and salvages the identical prefix;
//! * an injected u32 overflow outranks the budget trips other chunks
//!   race into, so the reported error is thread-count invariant;
//! * forced touch-table rejection only changes the execution path
//!   (sparse), never the answers;
//! * an injected panic surfaces at exactly the targeted nest of a
//!   program, rebased, with the fixed marker message;
//! * one oversized nest in a batch is refused by the table gate alone
//!   while its siblings stay exact;
//! * trips on the cumulative counter fall in program order, so every
//!   nest of a governed program has its serial outcome at every thread
//!   count.

use std::sync::Arc;

use loopmem_ir::{parse, parse_program, AnalysisError, BoundsMethod, TripReason};
use loopmem_sim::{
    simulate, try_simulate_program_with_threads, try_simulate_with_threads, AnalysisBudget,
    FaultKind, FaultPlan, INJECTED_PANIC,
};

/// Exactly 2 × 1024 iterations: two outer rows of one poll quantum each.
fn boundary_nest() -> loopmem_ir::LoopNest {
    parse(
        "array X[1030]\n\
         for i = 1 to 2 { for j = 1 to 1024 { X[j] = X[j + 2]; } }",
    )
    .unwrap()
}

fn budget_with(plan: FaultPlan) -> AnalysisBudget {
    AnalysisBudget::unlimited().with_fault_plan(Arc::new(plan))
}

#[test]
fn exhaust_on_exact_poll_boundary_salvages_the_full_prefix() {
    let nest = boundary_nest();
    let exact = simulate(&nest).mws_total;
    // The nest charges exactly 2048 iterations; a threshold of 2 poll
    // quanta (2048) is reached by the final charge, so the run trips
    // *after* completing every iteration — the salvaged prefix is the
    // whole space and the lower bound equals the exact MWS.
    let errors: Vec<AnalysisError> = [1usize, 2, 4]
        .iter()
        .map(|&t| {
            let budget = budget_with(FaultPlan::new(FaultKind::Exhaust, 2, 0));
            try_simulate_with_threads(&nest, false, t, &budget).unwrap_err()
        })
        .collect();
    let AnalysisError::Exhausted { reason, partial } = &errors[0] else {
        panic!("expected Exhausted, got {:?}", errors[0]);
    };
    assert_eq!(*reason, TripReason::MaxIterations);
    assert_eq!(partial.method, BoundsMethod::SalvagedPrefix);
    assert_eq!(
        partial.lower, exact,
        "full-prefix salvage must recover the exact MWS as its lower bound"
    );
    assert!(partial.upper >= exact);
    assert_eq!(errors[0], errors[1]);
    assert_eq!(errors[0], errors[2]);
}

#[test]
fn fault_past_the_last_charge_never_fires() {
    let nest = boundary_nest();
    let clean = simulate(&nest);
    // Threshold 3 × 1024 exceeds the 2048 iterations ever charged: the
    // plan stays dormant and the run completes exactly.
    for t in [1usize, 2, 4] {
        let budget = budget_with(FaultPlan::new(FaultKind::Exhaust, 3, 0));
        let sim = try_simulate_with_threads(&nest, false, t, &budget).unwrap();
        assert_eq!(sim.mws_total, clean.mws_total);
        assert_eq!(sim.iterations, clean.iterations);
    }
}

#[test]
fn injected_overflow_outranks_concurrent_budget_trips() {
    // ~10¹² iterations: at t > 1 the chunks that do NOT take the injected
    // overflow run on into the shared iteration cap. The overflow fires
    // at a fixed point of the charged stream, so it must win the failure
    // race at every thread count.
    let nest = parse(
        "array X[2000001]\n\
         for i = 1 to 1000000 { for j = 1 to 1000000 { X[i + j] = X[i + j - 1]; } }",
    )
    .unwrap();
    let errors: Vec<AnalysisError> = [1usize, 2, 4]
        .iter()
        .map(|&t| {
            let budget = AnalysisBudget::unlimited()
                .with_max_iterations(65_536)
                .with_fault_plan(Arc::new(FaultPlan::new(FaultKind::Overflow, 2, 0)));
            try_simulate_with_threads(&nest, false, t, &budget).unwrap_err()
        })
        .collect();
    assert!(
        matches!(&errors[0], AnalysisError::Overflow { .. }),
        "expected Overflow, got {:?}",
        errors[0]
    );
    assert_eq!(errors[0], errors[1]);
    assert_eq!(errors[0], errors[2]);
}

#[test]
fn rejected_tables_change_the_path_not_the_answers() {
    let nest = parse(
        "array A[52][52]\n\
         for i = 2 to 50 { for j = 1 to 50 { A[i][j] = A[i-1][j]; } }",
    )
    .unwrap();
    let clean = simulate(&nest);
    for t in [1usize, 2, 4] {
        let budget = budget_with(FaultPlan::new(FaultKind::RejectTables, 1, 0));
        let sim = try_simulate_with_threads(&nest, false, t, &budget).unwrap();
        assert_eq!(sim.mws_total, clean.mws_total);
        assert_eq!(sim.per_array, clean.per_array);
    }
}

#[test]
fn injected_panic_surfaces_at_the_targeted_program_nest() {
    let program = parse_program(
        "array A[10]\narray B[10]\n\
         for i = 1 to 3 { A[i]; }\n\
         for i = 1 to 3 { B[i]; }\n\
         for i = 1 to 3 { A[i] = B[i]; }",
    )
    .unwrap();
    for t in [1usize, 2, 4] {
        let budget = budget_with(FaultPlan::new(FaultKind::PanicNest, 1, 1));
        let gov = try_simulate_program_with_threads(&program, t, &budget).unwrap();
        assert_eq!(gov.per_nest[0], Ok(3));
        assert_eq!(gov.per_nest[2], Ok(3));
        match &gov.per_nest[1] {
            Err(AnalysisError::NestPanicked { nest, message }) => {
                assert_eq!(*nest, 1, "panic index must be rebased to the program");
                assert_eq!(message, INJECTED_PANIC);
            }
            other => panic!("expected NestPanicked for nest 1, got {other:?}"),
        }
        assert!(!gov.all_exact());
    }
}

#[test]
fn oversized_nest_in_a_batch_degrades_alone() {
    // Nest 1's pass-2 lane alone (4 bytes × ~10¹² iterations) blows any
    // sane table cap; the per-nest gate must refuse it up front while
    // nests 0 and 2 still analyze exactly under the same budget.
    let program = parse_program(
        "array A[10]\narray X[2000001]\n\
         for i = 1 to 3 { A[i]; }\n\
         for i = 1 to 1000000 { for j = 1 to 1000000 { X[i + j] = X[i + j - 1]; } }\n\
         for i = 1 to 3 { A[i] = A[i]; }",
    )
    .unwrap();
    let budget = AnalysisBudget::unlimited().with_max_table_bytes(1 << 20);
    for t in [1usize, 2, 4] {
        let gov = try_simulate_program_with_threads(&program, t, &budget).unwrap();
        assert_eq!(gov.per_nest[0], Ok(3));
        assert_eq!(gov.per_nest[2], Ok(3));
        match &gov.per_nest[1] {
            Err(AnalysisError::Exhausted { reason, partial }) => {
                assert_eq!(*reason, TripReason::MaxTableBytes);
                assert!(partial.lower <= partial.upper);
            }
            other => panic!("expected MaxTableBytes for nest 1, got {other:?}"),
        }
        assert!(!gov.all_exact());
        assert!(gov.mws_bounds.lower <= gov.mws_bounds.upper);
    }
}

/// An iteration cap or an injected exhaust trips the nest that reaches
/// its position in the cumulative iteration stream; the serial sweep
/// starts the next nest only after that, so it fails too and is salvaged.
/// Swept side by side, the short second nest could finish before the
/// long first one reached the position and come out exact.
#[test]
fn counted_trips_fall_in_program_order_at_every_thread_count() {
    let program = parse_program(
        "array A[371][371]\narray X[200]\n\
         for i = 1 to 370 { for j = i to 370 { A[i][j] = A[j][i]; } }\n\
         for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
    )
    .unwrap();
    let budgets: [fn() -> AnalysisBudget; 2] = [
        || budget_with(FaultPlan::new(FaultKind::Exhaust, 1, 0)),
        || AnalysisBudget::unlimited().with_max_iterations(30_000),
    ];
    for budget in budgets {
        let serial = try_simulate_program_with_threads(&program, 1, &budget()).unwrap();
        assert!(
            serial.per_nest.iter().all(Result::is_err),
            "{:?}",
            serial.per_nest
        );
        for t in [2usize, 4] {
            // Repeated: one run can slip through a race.
            for _ in 0..8 {
                let gov = try_simulate_program_with_threads(&program, t, &budget()).unwrap();
                assert_eq!(gov.per_nest, serial.per_nest, "t={t}");
                assert_eq!(gov.mws_bounds, serial.mws_bounds, "t={t}");
            }
        }
    }
}
