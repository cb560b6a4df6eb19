//! Quickstart: parse a nest, estimate its memory needs, optimize it, and
//! verify the result with the exact simulator.
//!
//! Run with `cargo run --example quickstart`.

use loopmem::core::{analyze_memory, apply_transform};
use loopmem::ir::{parse, print_nest};
use loopmem::Session;

fn main() {
    // Example 8 of the paper: a 1-D signal accessed along a skewed
    // direction, so consecutive iterations touch far-apart elements.
    let nest = parse(
        "array X[200]\n\
         for i = 1 to 25 {\n\
           for j = 1 to 10 {\n\
             X[2i + 5j + 1] = X[2i + 5j + 5];\n\
           }\n\
         }",
    )
    .expect("the kernel is valid DSL");

    println!("== input nest ==\n{}", print_nest(&nest));

    // 1. Estimate: how much memory does this loop actually need?
    let analysis = analyze_memory(&nest).expect("kernel simulates");
    println!("declared storage      : {} words", analysis.default_words);
    println!("distinct elements     : {}", analysis.distinct_exact_total);
    println!(
        "max window size (MWS) : {} words  <- minimum buffer capturing all reuse",
        analysis.mws_exact
    );

    // 2. Optimize: find a legal unimodular transformation minimizing MWS.
    let opt = Session::new().optimize(&nest).expect("search succeeds");
    println!(
        "\n== after compound transformation (searched {} candidates) ==",
        opt.candidates_considered
    );
    println!("T =\n{}", opt.transform);
    println!("{}", print_nest(&opt.transformed));
    println!("MWS {} -> {}", opt.mws_before, opt.mws_after);

    // 3. Verify: the transformed nest performs the same accesses.
    let reapplied = apply_transform(&nest, &opt.transform).expect("transformation applies");
    let session = Session::new();
    let a = session.simulate(&nest).expect("kernel simulates");
    let b = session.simulate(&reapplied).expect("kernel simulates");
    assert_eq!(a.distinct_total(), b.distinct_total());
    assert_eq!(b.mws_total, opt.mws_after);
    println!(
        "verified: same {} distinct elements, window shrank {:.1}x",
        a.distinct_total(),
        opt.mws_before as f64 / opt.mws_after as f64
    );
}
