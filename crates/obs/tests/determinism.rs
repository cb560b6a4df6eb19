//! Seeded byte-identity: the NDJSON stream a [`CollectingSink`] drains is
//! identical for every worker-thread count, on a clean run and under an
//! injected fault. This is the contract the chaos harness's oracle 6
//! sweeps at scale; here it is pinned as a plain test with fixed inputs.

use loopmem_ir::parse_program;
use loopmem_obs::{CollectingSink, TraceSink};
use loopmem_sim::{
    sweep_threads, try_simulate_program_with_threads, AnalysisBudget, FaultKind, FaultPlan,
};
use std::sync::Arc;

/// A triangular nest plus a rectangular one, so chunking is uneven and a
/// naive unsorted drain would interleave differently per thread count.
/// The triangular nest sweeps 370·371/2 = 68635 iterations — past the
/// 1024-iteration poll quantum, so a fault armed at poll 1 really fires —
/// and its 370² range box reaches the parallel-sweep cutoff. Under the
/// budget's iteration cap the nests sweep one after another, each with
/// every worker, so at t ∈ {2, 4} the triangle's chunks run in parallel.
const SRC: &str = "array A[371][371]\narray X[200]\n\
     for i = 1 to 370 { for j = i to 370 { A[i][j] = A[j][i]; } }\n\
     for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }";

/// Runs the governed program simulation at `threads` with a fresh
/// collecting sink (and optionally a fresh fault plan), returning the
/// drained canonical NDJSON.
fn traced_ndjson(threads: usize, fault: Option<(FaultKind, u64, usize)>) -> String {
    let program = parse_program(SRC).unwrap();
    let sink = Arc::new(CollectingSink::new());
    let dyn_sink: Arc<dyn TraceSink> = sink.clone();
    let mut budget = AnalysisBudget::unlimited()
        .with_max_iterations(1_000_000)
        .with_trace(dyn_sink);
    if let Some((kind, at_poll, nest)) = fault {
        // Plans carry fire-once state, so each run builds its own.
        budget = budget.with_fault_plan(Arc::new(FaultPlan::new(kind, at_poll, nest)));
    }
    let _ = try_simulate_program_with_threads(&program, threads, &budget);
    sink.drain().render_ndjson()
}

#[test]
fn clean_run_trace_bytes_identical_across_thread_counts() {
    let program = parse_program(SRC).unwrap();
    assert_eq!(
        sweep_threads(&program.nests()[0], 2),
        2,
        "the triangle must sweep in parallel"
    );
    let baseline = traced_ndjson(1, None);
    assert!(
        baseline.contains("\"event\":\"chunk-commit\""),
        "trace should carry chunk commits:\n{baseline}"
    );
    for threads in [2, 4] {
        assert_eq!(baseline, traced_ndjson(threads, None), "threads={threads}");
    }
}

#[test]
fn fault_tripped_run_trace_bytes_identical_across_thread_counts() {
    // Exhaust at the first poll quantum: the run degrades immediately and
    // the trip itself must appear in the trace, at the same byte offset
    // for every thread count.
    let fault = Some((FaultKind::Exhaust, 1, 0));
    let baseline = traced_ndjson(1, fault);
    assert!(
        baseline.contains("\"event\":\"fault-trip\""),
        "trace should record the injected trip:\n{baseline}"
    );
    for threads in [2, 4] {
        assert_eq!(baseline, traced_ndjson(threads, fault), "threads={threads}");
    }
}
