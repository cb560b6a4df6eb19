//! Cross-validation of the three independent measurement paths:
//! closed-form estimators (`loopmem-core`), polyhedral enumeration
//! (`loopmem-poly`), and trace simulation (`loopmem-sim`). Deterministic
//! (seeded `Lcg`), no external dependencies.

use loopmem::core::estimate_distinct;
use loopmem::ir::{parse, ArrayId, LoopNest};
use loopmem::linalg::Lcg;
use loopmem::poly::count::distinct_accesses_for;
use loopmem::sim::SimResult;
use loopmem::Session;

/// The nest's exact simulation (default session).
fn simulate(nest: &LoopNest) -> SimResult {
    Session::new().simulate(nest).unwrap()
}

/// Random single-reference 1-D access `A[p*i + q*j + c]` over a random box.
fn nullspace_case(rng: &mut Lcg) -> String {
    let p = rng.range_i64(1, 6);
    let q = rng.range_i64(-6, 6);
    let c = rng.range_i64(0, 9);
    let n1 = rng.range_i64(4, 14);
    let n2 = rng.range_i64(4, 14);
    // Ensure the subscript stays within a generous declaration.
    let max_idx = p.abs() * n1 + q.abs() * n2 + c + 50;
    let qterm = if q >= 0 {
        format!("+ {q}*j")
    } else {
        format!("- {}*j", -q)
    };
    format!(
        "array A[{max_idx}]\nfor i = 1 to {n1} {{ for j = 1 to {n2} {{ A[{p}*i {qterm} + {cc}]; }} }}",
        cc = c + 49,
    )
}

/// Random two-reference full-rank case `A[i+o1][j+o2] = A[i+o3][j+o4]`.
fn full_rank_case(rng: &mut Lcg) -> String {
    let n1 = rng.range_i64(4, 12);
    let n2 = rng.range_i64(4, 12);
    let o: Vec<i64> = (0..4).map(|_| rng.range_i64(-3, 3)).collect();
    format!(
        "array A[{}][{}]\nfor i = 1 to {n1} {{ for j = 1 to {n2} {{ \
         A[i + {a}][j + {b}] = A[i + {c}][j + {d}]; }} }}",
        n1 + 8,
        n2 + 8,
        a = o[0] + 4,
        b = o[1] + 4,
        c = o[2] + 4,
        d = o[3] + 4,
    )
}

#[test]
fn nullspace_formula_matches_enumeration() {
    let mut rng = Lcg::new(0x71);
    for _ in 0..64 {
        let src = nullspace_case(&mut rng);
        let nest = parse(&src).expect("generated source parses");
        let est = estimate_distinct(&nest)[&ArrayId(0)];
        let exact = distinct_accesses_for(&nest, ArrayId(0)) as i64;
        assert!(est.is_exact(), "single uniformly generated ref is exact");
        assert_eq!(est.value().unwrap(), exact, "{src}");
    }
}

#[test]
fn nullspace_formula_matches_simulator() {
    let mut rng = Lcg::new(0x72);
    for _ in 0..64 {
        let src = nullspace_case(&mut rng);
        let nest = parse(&src).expect("generated source parses");
        let est = estimate_distinct(&nest)[&ArrayId(0)];
        let sim = simulate(&nest);
        assert_eq!(est.value().unwrap() as u64, sim.distinct_total(), "{src}");
    }
}

#[test]
fn two_ref_full_rank_formula_is_exact() {
    let mut rng = Lcg::new(0x73);
    for _ in 0..64 {
        let src = full_rank_case(&mut rng);
        // §3.1 with r = 2 has no higher-order overlap, so the formula is
        // genuinely exact; all three paths must agree.
        let nest = parse(&src).expect("generated source parses");
        let est = estimate_distinct(&nest)[&ArrayId(0)];
        let exact = distinct_accesses_for(&nest, ArrayId(0)) as i64;
        assert_eq!(est.value().unwrap(), exact, "{src}");
        assert_eq!(exact as u64, simulate(&nest).distinct_total(), "{src}");
    }
}

#[test]
fn window_never_exceeds_distinct() {
    let mut rng = Lcg::new(0x74);
    for _ in 0..64 {
        let src = full_rank_case(&mut rng);
        let nest = parse(&src).expect("generated source parses");
        let sim = simulate(&nest);
        assert!(sim.mws_total <= sim.distinct_total(), "{src}");
        for stats in sim.per_array.values() {
            assert!(stats.mws <= stats.distinct, "{src}");
            assert!(stats.distinct <= stats.accesses, "{src}");
        }
    }
}

/// Seeded nests of the shapes no closed form covers: transposes,
/// Example 8's several offsets to one rank-deficient access, separable
/// and 1-D non-uniform accesses on boxes narrower than their coefficients,
/// and triangular nests. Each `<lo,hi>` hole takes a random value.
const UNCOVERED_SHAPES: [&str; 5] = [
    "array A[16][16]\nfor i = 1 to <2,9> { for j = 1 to <2,9> { A[i + <0,3>][j + <0,3>] = A[j + <0,3>][i + <0,3>]; } }",
    "array X[200]\nfor i = 1 to <3,12> { for j = 1 to <3,12> { X[2i + 5j + <0,6>] = X[2i + 5j + <0,6>] + X[2i + 5j + <0,6>]; } }",
    "array R[60][60]\nfor a = 1 to <1,4> { for b = 1 to <1,4> { for c = 1 to <1,3> { for d = 1 to <1,3> { R[<4,9>*a + c][<4,9>*b + d]; } } } }",
    "array A[200]\nfor i = 1 to <1,3> { for j = 1 to <1,3> { A[<3,9>*i + <3,9>*j] = A[<3,9>*i - <3,9>*j + 60]; } }",
    "array A[20][20]\narray B[40]\nfor i = 1 to <2,12> { for j = i to 12 { A[i][j + <0,3>] = A[j][i] + B[i + j]; } }",
];

fn instantiate(shape: &str, rng: &mut Lcg) -> String {
    let mut out = String::new();
    for (k, part) in shape.split(['<', '>']).enumerate() {
        match part.split_once(',') {
            Some((lo, hi)) if k % 2 == 1 => {
                let value = rng.range_i64(lo.parse().unwrap(), hi.parse().unwrap());
                out.push_str(&value.to_string());
            }
            _ => out.push_str(part),
        }
    }
    out
}

#[test]
fn enumeration_and_simulation_always_agree() {
    let mut rng = Lcg::new(0x75);
    let mut nests = Vec::new();
    for _ in 0..24 {
        let mut sources = vec![full_rank_case(&mut rng)];
        sources.extend(UNCOVERED_SHAPES.map(|shape| instantiate(shape, &mut rng)));
        for src in sources {
            let nest = parse(&src).expect("generated source parses");
            if nest.depth() == 2 {
                // Optimizer-transformed nests are non-rectangular in general.
                let opt = Session::new().optimize(&nest).expect("search succeeds");
                nests.push((format!("{src}\ntransformed"), opt.transformed));
            }
            nests.push((src, nest));
        }
    }
    for (src, nest) in nests {
        let by_poly = loopmem::poly::count::distinct_accesses(&nest);
        for threads in [1, 2] {
            let sim = Session::new().threads(threads).simulate(&nest).unwrap();
            for (id, &count) in &by_poly {
                assert_eq!(count, sim.array(*id).distinct, "{src} at t = {threads}");
            }
            assert_eq!(by_poly.len(), sim.per_array.len(), "{src}");
        }
    }
}
