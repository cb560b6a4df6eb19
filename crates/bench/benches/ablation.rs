//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * branch-and-bound vs. exhaustive scan over the leading-row space
//!   (§4.2's claim that B&B keeps solution times small as the coefficient
//!   bound grows);
//! * how much exact re-simulation the candidate-ranking heuristic saves
//!   (`simulate_top` sensitivity of the compound search).
//!
//! Dependency-free harness (std `Instant`).

mod util;

use loopmem_core::{try_branch_and_bound, two_level_objective};
use loopmem_core::{SearchMode, Session};
use loopmem_dep::legality::row_tileable;
use loopmem_dep::{analyze, DependenceSet};
use loopmem_ir::parse;
use loopmem_linalg::gcd::gcd_i64;
use loopmem_linalg::Rational;
use util::bench;

fn example8_deps() -> DependenceSet {
    analyze(
        &parse(
            "array X[200]\nfor i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
        )
        .expect("kernel parses"),
    )
}

fn exhaustive(alpha: (i64, i64), deps: &DependenceSet, bound: i64) -> Option<Rational> {
    let mut best: Option<Rational> = None;
    for a in -bound..=bound {
        for b in -bound..=bound {
            if (a, b) == (0, 0) || gcd_i64(a, b) != 1 || !row_tileable(&[a, b], deps) {
                continue;
            }
            let obj = two_level_objective(alpha, (a, b), (25, 10));
            if best.as_ref().is_none_or(|c| obj < *c) {
                best = Some(obj);
            }
        }
    }
    best
}

fn main() {
    let deps = example8_deps();
    let unlimited = loopmem_sim::AnalysisBudget::unlimited();
    println!("== leading-row search: branch & bound vs exhaustive ==");
    for bound in [4i64, 8, 16, 32, 64] {
        bench(&format!("branch_and_bound/{bound}"), || {
            try_branch_and_bound((2, 5), &deps, (25, 10), bound, &unlimited)
        });
        bench(&format!("exhaustive/{bound}"), || {
            exhaustive((2, 5), &deps, bound)
        });
    }

    println!("== compound search: simulate_top sensitivity ==");
    let nest = loopmem_bench::kernel_by_name("full_search")
        .expect("kernel exists")
        .nest();
    for top in [1usize, 4, 12, 24] {
        bench(&format!("simulate_top/{top}"), || {
            Session::new()
                .search_mode(SearchMode::Compound {
                    max_coeff: 6,
                    simulate_top: top,
                })
                .optimize(&nest)
        });
    }
}
