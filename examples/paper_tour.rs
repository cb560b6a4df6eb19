//! A guided tour of every worked example in the paper, computed live.
//!
//! Run with `cargo run --release --example paper_tour`.

use loopmem::core::SearchMode;
use loopmem::core::{
    estimate_distinct, three_level_estimate, try_branch_and_bound, two_level_estimate,
};
use loopmem::dep::{analyze, reuse_vectors};
use loopmem::ir::{parse, ArrayId, LoopNest};
use loopmem::poly::count::distinct_accesses_for;
use loopmem::sim::SimResult;
use loopmem::Session;

/// The nest's exact simulation (default session).
fn simulate(nest: &LoopNest) -> SimResult {
    Session::new().simulate(nest).expect("kernel simulates")
}

fn heading(s: &str) {
    println!("\n=== {s} ===");
}

fn main() {
    heading("§2.2, Examples 1(a)/1(b): reuse induced by dependence (3,2)");
    let e1b = parse("array A[51]\nfor i = 1 to 10 { for j = 1 to 10 { A[2i + 3j]; } }")
        .expect("kernel parses");
    let s = simulate(&e1b);
    println!(
        "A[2i+3j] over 10x10: {} accesses, {} distinct -> reuse {} (paper: 56)",
        s.iterations,
        s.distinct_total(),
        s.iterations - s.distinct_total()
    );

    heading("§3.1, Example 2: A[i][j] = A[i-1][j+2]");
    let e2 =
        parse("array A[12][14]\nfor i = 1 to 10 { for j = 1 to 10 { A[i][j] = A[i-1][j+2]; } }")
            .expect("kernel parses");
    let est = estimate_distinct(&e2)[&ArrayId(0)];
    println!(
        "formula A_d = 2N1N2 - (N1-1)(N2-2) = {} ; exact = {}",
        est.upper,
        distinct_accesses_for(&e2, ArrayId(0))
    );

    heading("§3.1, Example 3: four uniformly generated references");
    let e3 = parse(
        "array A[11][11]\nfor i = 1 to 10 { for j = 1 to 10 {\
           A[i][j] = A[i-1][j] + A[i][j-1] + A[i-1][j-1]; } }",
    )
    .expect("kernel parses");
    let est = estimate_distinct(&e3)[&ArrayId(0)];
    println!(
        "paper's formula: {} ; true union: {} (the formula ignores overlap of overlaps)",
        est.upper,
        distinct_accesses_for(&e3, ArrayId(0))
    );

    heading("§3.2, Examples 4 & 5: reuse along the null space");
    let e4 = parse("array A[111]\nfor i = 1 to 20 { for j = 1 to 10 { A[2i + 5j + 1]; } }")
        .expect("kernel parses");
    println!(
        "A[2i+5j+1], 20x10: reuse vector {:?}, A_d = {} (paper: 80)",
        reuse_vectors(&e4)[0].1,
        estimate_distinct(&e4)[&ArrayId(0)].upper
    );
    let e5 = parse(
        "array A[61][51]\n\
         for i = 1 to 10 { for j = 1 to 20 { for k = 1 to 30 { A[3i + k][j + k]; } } }",
    )
    .expect("kernel parses");
    println!(
        "A[3i+k][j+k], 10x20x30: reuse vector {:?}, A_d = {} (paper: 1869)",
        reuse_vectors(&e5)[0].1,
        estimate_distinct(&e5)[&ArrayId(0)].upper
    );

    heading("§3.2, Example 6: non-uniformly generated bounds");
    let e6 = parse(
        "array A[200]\nfor i = 1 to 20 { for j = 1 to 20 { A[3i + 7j - 10] = A[4i - 3j + 60]; } }",
    )
    .expect("kernel parses");
    let est = estimate_distinct(&e6)[&ArrayId(0)];
    println!(
        "bounds [{}, {}] (paper: [179, 191]); exact {} (paper prints 181 — off by one)",
        est.lower,
        est.upper,
        distinct_accesses_for(&e6, ArrayId(0))
    );

    heading("§4, Example 7: compound transformation vs interchange/reversal");
    let e7 = parse("array X[100]\nfor i = 1 to 20 { for j = 1 to 30 { X[2i - 3j]; } }")
        .expect("kernel parses");
    println!(
        "eq.(2) estimates: original {}, interchange {} (paper costs 89/41)",
        two_level_estimate((2, -3), (1, 0), (20, 30)),
        two_level_estimate((2, -3), (0, 1), (20, 30)),
    );
    let best = Session::new().optimize(&e7).expect("search succeeds");
    let baseline = Session::new()
        .search_mode(SearchMode::InterchangeReversal)
        .optimize(&e7)
        .expect("search succeeds");
    println!(
        "exact MWS: original {}, best elementary {}, compound {} (paper: ... -> 1)",
        best.mws_before, baseline.mws_after, best.mws_after
    );

    heading("§4.2, Example 8: branch and bound + Li-Pingali");
    let e8 = parse(
        "array X[200]\nfor i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
    )
    .expect("kernel parses");
    let deps = analyze(&e8);
    println!(
        "distances: {:?} (paper: (3,-2), (2,0), (5,-2))",
        deps.distances(true)
    );
    let unlimited = loopmem::sim::AnalysisBudget::unlimited();
    let bnb = try_branch_and_bound((2, 5), &deps, (25, 10), 6, &unlimited)
        .expect("an unlimited budget never trips")
        .expect("feasible");
    println!(
        "branch & bound: row {:?}, objective {} (paper: (2,3) with 22), {} nodes / {} pruned",
        bnb.row, bnb.objective, bnb.nodes_explored, bnb.nodes_pruned
    );
    let opt = Session::new().optimize(&e8).expect("search succeeds");
    println!(
        "compound search: MWS {} -> {} (paper: actual 21)",
        opt.mws_before, opt.mws_after
    );
    match Session::new()
        .search_mode(SearchMode::LiPingali)
        .optimize(&e8)
    {
        Err(e) => println!("Li-Pingali: {e} (paper: no legal completion)"),
        Ok(o) => println!("Li-Pingali unexpectedly reached {}", o.mws_after),
    }

    heading("§4.3, Example 10: three-deep window and its collapse");
    let rv = &reuse_vectors(&e5)[0].1;
    println!(
        "reuse vector {:?}: MWS formula {} (paper: 540), exact {}",
        rv,
        three_level_estimate((rv[0], rv[1], rv[2]), (10, 20, 30)),
        simulate(&e5).mws_total
    );
    let opt10 = Session::new().optimize(&e5).expect("search succeeds");
    println!(
        "after access-matrix transformation: MWS {} (paper: 1)",
        opt10.mws_after
    );
    println!("\nTour complete — every number above is recomputed, not hard-coded.");
}
