//! Integration coverage of the extension APIs through the facade:
//! symbolic formulas, inclusion–exclusion counting, programs, fusion,
//! tiling, direction vectors, and the replacement/layout machinery.

use loopmem::core::{
    distinct_formulas, estimate_distinct, estimate_distinct_exact, estimate_nest_mws, fuse, tile,
};
use loopmem::dep::{direction_vector, Direction};
use loopmem::ir::{parse, parse_program, print_program, ArrayId, LoopNest};
use loopmem::sim::{
    line_analysis, min_perfect_capacity, Layout, Policy, ReuseHistogram, SimResult, Trace,
};
use loopmem::Session;
use std::collections::HashMap;

/// The nest's exact simulation (default session).
fn simulate(nest: &LoopNest) -> SimResult {
    Session::new().simulate(nest).unwrap()
}

#[test]
fn improved_estimator_fixes_example3() {
    let nest = parse(
        "array A[11][11]\nfor i = 1 to 10 { for j = 1 to 10 {\
           A[i][j] = A[i-1][j] + A[i][j-1] + A[i-1][j-1]; } }",
    )
    .unwrap();
    let paper = estimate_distinct(&nest)[&ArrayId(0)];
    let improved = estimate_distinct_exact(&nest)[&ArrayId(0)];
    assert_eq!(paper.value(), Some(139));
    assert_eq!(improved.value(), Some(121));
    assert_eq!(improved.method, loopmem::core::Method::InclusionExclusion);
}

#[test]
fn symbolic_formula_predicts_unseen_sizes() {
    let nest =
        parse("array A[99][99]\nfor i = 1 to 10 { for j = 1 to 10 { A[i][j] = A[i-2][j+1]; } }")
            .unwrap();
    let est = distinct_formulas(&nest).remove(&ArrayId(0)).unwrap();
    // Check against a freshly parsed instance at a different size.
    let bigger =
        parse("array A[99][99]\nfor i = 1 to 30 { for j = 1 to 17 { A[i][j] = A[i-2][j+1]; } }")
            .unwrap();
    let values: HashMap<String, i64> = [("N1".to_string(), 30i64), ("N2".to_string(), 17)].into();
    assert_eq!(
        est.formula.eval(&values),
        estimate_distinct(&bigger)[&ArrayId(0)].upper
    );
}

#[test]
fn program_roundtrip_and_printing() {
    let src = "array A[8][8]\narray B[8][8]\n\
               for i = 1 to 8 { for j = 1 to 8 { A[i][j] = A[i][j] + 1; } }\n\
               for i = 1 to 8 { for j = 1 to 8 { B[i][j] = A[i][j]; } }";
    let p = parse_program(src).unwrap();
    let printed = print_program(&p);
    // Declarations appear once, both nests present.
    assert_eq!(printed.matches("array A[8][8]").count(), 1);
    assert_eq!(printed.matches("for i = 1 to 8 {").count(), 2);
    let reparsed = parse_program(&printed).unwrap();
    assert_eq!(reparsed, p);
}

#[test]
fn fusion_then_program_optimization_compose() {
    let p = parse_program(
        "array A[12][12]\narray B[12][12]\narray C[12][12]\n\
         for i = 2 to 12 { for j = 1 to 12 { A[i][j] = A[i-1][j] + B[i][j]; } }\n\
         for i = 2 to 12 { for j = 1 to 12 { C[i][j] = A[i][j]; } }",
    )
    .unwrap();
    let session = Session::new();
    let before = session.simulate_program(&p).unwrap();
    // Nests conform (2..12 x 1..12) and A flows forward: fusable.
    let fused = fuse(&p, 0).unwrap();
    let mid = session.simulate_program(&fused).unwrap();
    assert!(mid.sim.mws_total <= before.sim.mws_total);
    // Per-nest optimization still applies to the fused program.
    let opt = session.optimize_program(&fused).unwrap();
    assert!(opt.mws_after.upper <= opt.mws_before.upper);
}

#[test]
fn direction_vectors_on_transposed_pipeline() {
    let nest = parse("array M[10][10]\nfor i = 1 to 10 { for j = 1 to 10 { M[i][j] = M[j][i]; } }")
        .unwrap();
    let refs: Vec<_> = nest.refs().collect();
    let dv = direction_vector(&nest, refs[0], refs[1]).expect("transposed refs collide");
    assert_eq!(dv.0, vec![Direction::Star, Direction::Star]);
}

#[test]
fn tiled_nest_is_still_analyzable_end_to_end() {
    let nest = parse(
        "array A[18][18]\nfor i = 2 to 16 { for j = 2 to 16 { A[i][j] = A[i-1][j] + A[i][j-1]; } }",
    )
    .unwrap();
    let tiled = tile(&nest, &[5, 5]).unwrap();
    // Simulator, estimators, and trace tools all accept the tiled nest.
    let s = simulate(&tiled);
    assert_eq!(s.distinct_total(), simulate(&nest).distinct_total());
    let t = Trace::from_nest(&tiled);
    let h = ReuseHistogram::from_trace(&t);
    assert_eq!(h.cold(), t.distinct() as u64);
    assert!(min_perfect_capacity(&t, Policy::Opt) >= 1);
}

#[test]
fn layout_analysis_for_a_program_nest() {
    let nest =
        parse("array A[16][16]\nfor i = 1 to 16 { for j = 1 to 16 { A[i][j] = A[i][j] + 1; } }")
            .unwrap();
    let (rm, _) = line_analysis(&nest, &[Layout::RowMajor], 4);
    assert_eq!(rm.distinct_lines, 64);
    assert!(rm.mws_lines <= 2, "streaming rows: at most one line live");
}

#[test]
fn closed_form_nest_mws_covers_the_kernel_suite() {
    for k in loopmem_bench::all_kernels() {
        let nest = k.nest();
        let est = estimate_nest_mws(&nest).expect("kernels are rectangular");
        let exact = simulate_program_of(&nest) as i64;
        // The closed form is an *estimate*: per-group terms ignore the
        // inter-group interleaving, so it sits close to the exact value
        // for the paper's derived shapes (2-level / 3-level groups) and
        // degenerates to a loose upper bound for deep multi-group nests
        // (3step_log's lexicographic-delay path). Pin the usable
        // direction: never more than ~10% below exact.
        assert!(
            10 * est >= 9 * exact,
            "{}: estimate {} far below exact {}",
            k.name,
            est,
            exact
        );
    }
}

fn simulate_program_of(nest: &loopmem::ir::LoopNest) -> u64 {
    // Exercise the program path even for single nests.
    let p = loopmem::ir::Program::new(vec![nest.clone()]).unwrap();
    Session::new().simulate_program(&p).unwrap().sim.mws_total
}
