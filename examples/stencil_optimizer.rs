//! Walking through the optimizer's reasoning on a stencil.
//!
//! Shows the §4 pipeline in slow motion: dependence analysis, legality and
//! tiling filters on candidate leading rows, the closed-form objective,
//! and the exact before/after windows — comparing the compound search
//! against the interchange+reversal baseline.
//!
//! Run with `cargo run --example stencil_optimizer`.

use loopmem::core::two_level_estimate;
use loopmem::core::SearchMode;
use loopmem::dep::analyze;
use loopmem::dep::legality::row_tileable;
use loopmem::ir::{parse, print_nest};
use loopmem::Session;

fn main() {
    // The 2-point vertical stencil of Figure 2: the outer loop carries
    // the dependence, keeping an entire image row live.
    let nest = parse(
        "array A[64][64]\n\
         for i = 2 to 64 {\n\
           for j = 1 to 64 {\n\
             A[i][j] = A[i-1][j] + A[i][j];\n\
           }\n\
         }",
    )
    .expect("kernel parses");
    println!("== input stencil ==\n{}", print_nest(&nest));

    // 1. Dependences.
    let deps = analyze(&nest);
    println!("dependences:");
    for d in deps.iter() {
        println!("  {:?}  {} (level {})", d.distance, d.kind, d.level());
    }

    // 2. Candidate leading rows and their legality/objective.
    println!("\ncandidate leading rows (a, b):");
    for row in [(1i64, 0i64), (0, 1), (1, 1), (0, -1), (1, -1)] {
        let tileable = row_tileable(&[row.0, row.1], &deps);
        // The stencil is a 2-D array; eq. (2) applies per column family, so
        // use the generic objective printed by the search instead. Here we
        // show eq. (2) on the column access function alpha = (1, 0).
        let est = two_level_estimate((1, 0), row, (63, 64));
        println!(
            "  ({:>2},{:>2})  tileable: {:<5}  eq.(2) estimate: {}",
            row.0, row.1, tileable, est
        );
    }

    // 3. Full searches.
    let compound = Session::new().optimize(&nest).expect("compound search");
    let baseline = Session::new()
        .search_mode(SearchMode::InterchangeReversal)
        .optimize(&nest)
        .expect("baseline search");
    println!("\n== results ==");
    println!(
        "original MWS: {}  (simulator: {})",
        compound.mws_before,
        Session::new()
            .simulate(&nest)
            .expect("kernel simulates")
            .mws_total
    );
    println!(
        "interchange+reversal: MWS {} with T =\n{}",
        baseline.mws_after, baseline.transform
    );
    println!(
        "compound search     : MWS {} with T =\n{}",
        compound.mws_after, compound.transform
    );
    println!("transformed nest:\n{}", print_nest(&compound.transformed));
}
