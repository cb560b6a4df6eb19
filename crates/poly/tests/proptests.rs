//! Property-style tests: Fourier–Motzkin soundness and enumeration
//! exactness against brute force. Deterministic (seeded `Lcg`), no
//! external dependencies.

use loopmem_linalg::Lcg;
use loopmem_poly::{for_each_point, Constraint, Polyhedron};

/// A random constraint system over 2 variables, anchored inside a known
/// bounding box so enumeration terminates.
fn random_poly_2d(rng: &mut Lcg) -> Polyhedron {
    let mut p = Polyhedron::universe(2);
    p.add(Constraint::new(vec![1, 0], 6)); // x >= -6
    p.add(Constraint::new(vec![-1, 0], 6)); // x <= 6
    p.add(Constraint::new(vec![0, 1], 6));
    p.add(Constraint::new(vec![0, -1], 6));
    for _ in 0..rng.range_usize(0, 3) {
        p.add(Constraint::new(rng.ivec(2, -3, 3), rng.range_i64(-12, 12)));
    }
    p
}

fn brute_force(p: &Polyhedron) -> Vec<Vec<i64>> {
    let mut out = Vec::new();
    for x in -6..=6i64 {
        for y in -6..=6i64 {
            if p.contains(&[x, y]) {
                out.push(vec![x, y]);
            }
        }
    }
    out
}

#[test]
fn enumeration_matches_brute_force() {
    let mut rng = Lcg::new(0x31);
    for case in 0..512 {
        let p = random_poly_2d(&mut rng);
        let mut pts = Vec::new();
        for_each_point(&p, |pt| pts.push(pt.to_vec()));
        assert_eq!(pts, brute_force(&p), "case {case}: {p:?}");
    }
}

#[test]
fn elimination_is_sound() {
    let mut rng = Lcg::new(0x32);
    for case in 0..256 {
        let p = random_poly_2d(&mut rng);
        // Every point of P satisfies the shadow after eliminating either
        // variable (projection is an over-approximation, never an under-).
        let s0 = loopmem_poly::fm::eliminate(&p, 0);
        let s1 = loopmem_poly::fm::eliminate(&p, 1);
        for pt in brute_force(&p) {
            assert!(s0.contains(&pt), "case {case}: {pt:?} escaped shadow of x");
            assert!(s1.contains(&pt), "case {case}: {pt:?} escaped shadow of y");
        }
    }
}

#[test]
fn emptiness_test_is_exact_on_rational_empties() {
    let mut rng = Lcg::new(0x33);
    for case in 0..512 {
        let p = random_poly_2d(&mut rng);
        // If FM says rationally empty there are certainly no integer
        // points; if brute force finds a point FM must not claim empty.
        if p.is_rationally_empty() {
            assert!(brute_force(&p).is_empty(), "case {case}: {p:?}");
        }
        if !brute_force(&p).is_empty() {
            assert!(!p.is_rationally_empty(), "case {case}: {p:?}");
        }
    }
}

#[test]
fn var_range_brackets_all_points() {
    let mut rng = Lcg::new(0x34);
    for case in 0..512 {
        let p = random_poly_2d(&mut rng);
        let pts = brute_force(&p);
        for k in 0..2 {
            match p.var_range(k) {
                Some((lo, hi)) => {
                    for pt in &pts {
                        assert!(lo <= pt[k] && pt[k] <= hi, "case {case}: {p:?}");
                    }
                }
                None => assert!(pts.is_empty(), "case {case}: {p:?}"),
            }
        }
    }
}

#[test]
fn affine_range_brackets_all_points() {
    let mut rng = Lcg::new(0x36);
    for case in 0..512 {
        let p = random_poly_2d(&mut rng);
        let pts = brute_force(&p);
        let f = rng.ivec(2, -4, 4);
        let c = rng.range_i64(-9, 9);
        let values = pts.iter().map(|pt| f[0] * pt[0] + f[1] * pt[1] + c);
        match p.affine_range(&f, c, 64) {
            Some((lo, hi)) => {
                for v in values {
                    assert!(
                        lo <= v && v <= hi,
                        "case {case}: {v} outside {lo}..={hi}, {p:?}"
                    );
                }
            }
            None => assert!(pts.is_empty(), "case {case}: {p:?}"),
        }
    }
}

#[test]
fn regenerated_loops_scan_the_same_points() {
    let mut rng = Lcg::new(0x35);
    for case in 0..256 {
        let p = random_poly_2d(&mut rng);
        let names = vec!["u".to_string(), "v".to_string()];
        let Ok(loops) = loopmem_poly::regenerate_loops(&p, &names) else {
            // Empty polyhedra are allowed to fail regeneration.
            continue;
        };
        let mut scanned = Vec::new();
        // Outer bounds may involve no variables; evaluate with zeros.
        let ulo = loops[0].lower.eval_lower(&[0, 0]);
        let uhi = loops[0].upper.eval_upper(&[0, 0]);
        for u in ulo..=uhi {
            let vlo = loops[1].lower.eval_lower(&[u, 0]);
            let vhi = loops[1].upper.eval_upper(&[u, 0]);
            for v in vlo..=vhi {
                if p.contains(&[u, v]) {
                    scanned.push(vec![u, v]);
                }
                // Rational bounds may include integer holes; they must be
                // points of the rational shadow, nothing checked.
            }
        }
        assert_eq!(scanned, brute_force(&p), "case {case}: {p:?}");
    }
}
