//! Property-style tests for the estimators, transformation machinery, and
//! the branch-and-bound search. Deterministic (seeded `Lcg`), no external
//! dependencies.

use loopmem_core::Session;
use loopmem_core::{
    apply_transform, three_level_estimate, tile, try_branch_and_bound, two_level_estimate,
    two_level_objective,
};
use loopmem_dep::analyze;
use loopmem_ir::{parse, LoopNest};
use loopmem_linalg::gcd::gcd_i64;
use loopmem_linalg::{IMat, Lcg, Rational};
use loopmem_sim::{count_iterations, SimResult};

fn simulate(nest: &LoopNest) -> SimResult {
    Session::new().simulate(nest).unwrap()
}

#[test]
fn eq2_equals_continuous_objective_rounded_down_or_matches() {
    let mut rng = Lcg::new(0x61);
    let mut cases = 0;
    while cases < 40 {
        let a1 = rng.range_i64(1, 5);
        let a2 = rng.range_i64(-5, 5);
        let a = rng.range_i64(-4, 4);
        let b = rng.range_i64(-4, 4);
        let n1 = rng.range_i64(5, 30);
        let n2 = rng.range_i64(5, 30);
        if (a, b) == (0, 0) {
            continue;
        }
        cases += 1;
        let est = two_level_estimate((a1, a2), (a, b), (n1, n2));
        let obj = two_level_objective((a1, a2), (a, b), (n1, n2));
        // The floored estimate never exceeds the continuous objective and
        // they differ by less than one maxspan quantum (= the weight).
        let w = (a2 * a - a1 * b).abs().max(1);
        assert!(
            Rational::from(est) <= obj,
            "({a1},{a2}) T=({a},{b}) N=({n1},{n2})"
        );
        assert!(
            obj - Rational::from(est) < Rational::from(w),
            "({a1},{a2}) T=({a},{b}) N=({n1},{n2})"
        );
    }
}

#[test]
fn eq2_tracks_the_simulator_for_single_references() {
    let mut rng = Lcg::new(0x62);
    for _ in 0..40 {
        let a1 = rng.range_i64(1, 4);
        let a2 = rng.range_i64(1, 4);
        let skew = rng.range_i64(-2, 2);
        let n1 = rng.range_i64(5, 14);
        let n2 = rng.range_i64(5, 14);
        // Single uniformly generated 1-D reference under a skewing
        // transformation T = [[1, skew], [0, 1]].
        let base = a1 * n1 + a2 * n2 + 20;
        let src = format!(
            "array X[{sz}]\nfor i = 1 to {n1} {{ for j = 1 to {n2} {{ X[{a1}*i + {a2}*j + 1]; }} }}",
            sz = base + 10
        );
        let nest = parse(&src).expect("parses");
        let t = IMat::from_rows(&[vec![1, skew], vec![0, 1]]);
        let out = apply_transform(&nest, &t).expect("unimodular");
        let exact = simulate(&out).mws_total as i64;
        let est = two_level_estimate((a1, a2), (1, skew), (n1, n2));
        // The closed form is an upper estimate within one line of slack.
        assert!(
            exact <= est + 1,
            "exact {exact} > est {est} ({src}, skew {skew})"
        );
        // Tightness holds in eq. (2)'s intended regime — extents well
        // above the coefficients, so the reuse lattice is dense. With
        // sparse reuse (large strides over a small box) the formula is a
        // deliberate over-estimate and no tightness is claimed.
        if a1 == 1 && a2 == 1 && skew.abs() <= 1 {
            assert!(
                est <= 3 * exact + 3,
                "est {est} vs exact {exact} ({src}, skew {skew})"
            );
        }
    }
}

#[test]
fn three_level_formula_upper_bounds_simulator() {
    let mut rng = Lcg::new(0x63);
    for _ in 0..40 {
        let q = rng.range_i64(1, 4);
        let n2 = rng.range_i64(5, 10);
        let n3 = rng.range_i64(5, 10);
        // The family A[q*i + k][j + k] has reuse kernel (1, q, -q); the
        // §4.3 three-level closed form must upper-bound the simulator.
        let n1 = 6i64;
        let src = format!(
            "array A[{}][{}]\n\
             for i = 1 to {n1} {{ for j = 1 to {n2} {{ for k = 1 to {n3} {{ \
             A[{q}*i + k][j + k]; }} }} }}",
            q * n1 + n3 + 2,
            n2 + n3 + 2,
        );
        let nest = parse(&src).expect("parses");
        let exact = simulate(&nest).mws_total as i64;
        let est = three_level_estimate((1, q, -q), (n1, n2, n3));
        assert!(exact <= est + 1, "exact {exact} > est {est} ({src})");
    }
}

#[test]
fn bnb_matches_exhaustive_on_random_dependence_sets() {
    let mut rng = Lcg::new(0x64);
    for _ in 0..40 {
        let o1 = rng.range_i64(0, 6);
        let o2 = rng.range_i64(0, 6);
        let p = rng.range_i64(1, 4);
        let q = rng.range_i64(-4, 4);
        let a1 = rng.range_i64(1, 5);
        let a2 = rng.range_i64(-5, 5);
        let qt = if q >= 0 {
            format!("+ {q}*j")
        } else {
            format!("- {}*j", -q)
        };
        let src = format!(
            "array A[300]\nfor i = 1 to 12 {{ for j = 1 to 9 {{ \
             A[{p}*i {qt} + {x}] = A[{p}*i {qt} + {y}]; }} }}",
            x = 60 + o1,
            y = 60 + o2,
        );
        let nest = parse(&src).expect("parses");
        let deps = analyze(&nest);
        let bound = 4;
        let bnb = try_branch_and_bound(
            (a1, a2),
            &deps,
            (12, 9),
            bound,
            &loopmem_sim::AnalysisBudget::unlimited(),
        )
        .expect("an unlimited budget never trips");
        // Exhaustive reference.
        let mut best: Option<Rational> = None;
        for a in -bound..=bound {
            for b in -bound..=bound {
                if (a, b) == (0, 0) || gcd_i64(a, b) != 1 {
                    continue;
                }
                if !loopmem_dep::legality::row_tileable(&[a, b], &deps) {
                    continue;
                }
                let obj = two_level_objective((a1, a2), (a, b), (12, 9));
                if best.as_ref().is_none_or(|c| obj < *c) {
                    best = Some(obj);
                }
            }
        }
        match (bnb, best) {
            (Some(r), Some(obj)) => assert_eq!(r.objective, obj, "{src}"),
            (None, None) => {}
            (got, want) => panic!("bnb {got:?} vs exhaustive {want:?} ({src})"),
        }
    }
}

#[test]
fn tiling_preserves_work_for_random_sizes() {
    let mut rng = Lcg::new(0x65);
    for _ in 0..40 {
        let b1 = rng.range_i64(1, 6);
        let b2 = rng.range_i64(1, 6);
        let n1 = rng.range_i64(4, 10);
        let n2 = rng.range_i64(4, 10);
        let src = format!(
            "array A[{}][{}]\nfor i = 1 to {n1} {{ for j = 1 to {n2} {{ A[i][j] = A[i][j] + 1; }} }}",
            n1, n2
        );
        let nest = parse(&src).expect("parses");
        let tiled = tile(&nest, &[b1, b2]).expect("rectangular");
        assert_eq!(count_iterations(&tiled), count_iterations(&nest), "{src}");
        assert_eq!(
            simulate(&tiled).distinct_total(),
            simulate(&nest).distinct_total(),
            "{src}"
        );
    }
}

#[test]
fn optimizer_output_is_reproducible() {
    let mut rng = Lcg::new(0x66);
    for _ in 0..12 {
        let d1 = rng.range_i64(-2, 2);
        let d2 = rng.range_i64(-2, 2);
        let src = format!(
            "array A[16][16]\nfor i = 1 to 8 {{ for j = 1 to 8 {{ \
             A[i + 4][j + 4] = A[i + {a}][j + {b}]; }} }}",
            a = d1 + 4,
            b = d2 + 4,
        );
        let nest = parse(&src).expect("parses");
        let o1 = Session::new().optimize(&nest).expect("search");
        let o2 = Session::new().optimize(&nest).expect("search");
        assert_eq!(o1.transform, o2.transform, "{src}");
        assert_eq!(o1.mws_after, o2.mws_after);
    }
}
