//! Semantic guarantees of the transformation machinery: a unimodular
//! transformation permutes the iteration order without changing the set of
//! accesses, and the optimizer never regresses. Deterministic (seeded
//! `Lcg`), no external dependencies.

use loopmem::core::apply_transform;
use loopmem::core::SearchMode;
use loopmem::dep::{analyze, is_legal};
use loopmem::ir::{parse, LoopNest};
use loopmem::linalg::{IMat, Lcg};
use loopmem::sim::{count_iterations, SimResult};
use loopmem::Session;

/// The nest's exact simulation (default session).
fn simulate(nest: &LoopNest) -> SimResult {
    Session::new().simulate(nest).unwrap()
}

/// Random 2×2 unimodular matrices via products of elementary generators
/// (skews and the signed swap), so every sample is exactly unimodular.
fn unimodular2(rng: &mut Lcg) -> IMat {
    let mut m = IMat::identity(2);
    for _ in 0..rng.range_usize(1, 4) {
        let k = rng.range_i64(-2, 2);
        let g = match rng.range_usize(0, 2) {
            0 => IMat::from_rows(&[vec![1, k], vec![0, 1]]),
            1 => IMat::from_rows(&[vec![1, 0], vec![k, 1]]),
            _ => IMat::from_rows(&[vec![0, 1], vec![-1, 0]]),
        };
        m = &g * &m;
    }
    m
}

fn small_nest(rng: &mut Lcg) -> String {
    let n1 = rng.range_i64(3, 8);
    let n2 = rng.range_i64(3, 8);
    let d1 = rng.range_i64(-2, 2);
    let d2 = rng.range_i64(-2, 2);
    format!(
        "array A[{}][{}]\nfor i = 1 to {n1} {{ for j = 1 to {n2} {{ \
         A[i + 3][j + 3] = A[i + {a}][j + {b}]; }} }}",
        n1 + 6,
        n2 + 6,
        a = d1 + 3,
        b = d2 + 3,
    )
}

#[test]
fn transformation_preserves_access_sets() {
    let mut rng = Lcg::new(0x81);
    for _ in 0..48 {
        let src = small_nest(&mut rng);
        let t = unimodular2(&mut rng);
        let nest = parse(&src).expect("generated source parses");
        assert!(t.is_unimodular());
        let out = apply_transform(&nest, &t).expect("unimodular transforms apply");
        assert_eq!(count_iterations(&out), count_iterations(&nest), "{src}");
        let (a, b) = (simulate(&nest), simulate(&out));
        assert_eq!(a.distinct_total(), b.distinct_total(), "{src}");
        // Per-array access counts are preserved too (same multiset of work).
        for (id, sa) in &a.per_array {
            assert_eq!(sa.accesses, b.per_array[id].accesses, "{src}");
            assert_eq!(sa.distinct, b.per_array[id].distinct, "{src}");
        }
    }
}

#[test]
fn roundtrip_through_inverse_is_identity() {
    let mut rng = Lcg::new(0x82);
    for _ in 0..48 {
        let src = small_nest(&mut rng);
        let t = unimodular2(&mut rng);
        let nest = parse(&src).expect("generated source parses");
        let fwd = apply_transform(&nest, &t).expect("forward");
        let back = apply_transform(&fwd, &t.unimodular_inverse().unwrap()).expect("inverse");
        assert_eq!(
            simulate(&back).mws_total,
            simulate(&nest).mws_total,
            "{src}"
        );
    }
}

#[test]
fn optimizer_never_regresses() {
    let mut rng = Lcg::new(0x83);
    for _ in 0..24 {
        let src = small_nest(&mut rng);
        let nest = parse(&src).expect("generated source parses");
        let opt = Session::new()
            .optimize(&nest)
            .expect("identity is a candidate");
        assert!(opt.mws_after <= opt.mws_before, "{src}");
        // The reported transformation is legal and reproduces mws_after.
        let deps = analyze(&nest);
        assert!(is_legal(&opt.transform, &deps), "{src}");
        let redo = apply_transform(&nest, &opt.transform).expect("reported T applies");
        assert_eq!(simulate(&redo).mws_total, opt.mws_after, "{src}");
    }
}

#[test]
fn interchange_reversal_is_never_better_than_compound() {
    let mut rng = Lcg::new(0x84);
    for _ in 0..24 {
        let src = small_nest(&mut rng);
        let nest = parse(&src).expect("generated source parses");
        let compound = Session::new().optimize(&nest).expect("compound");
        let baseline = Session::new()
            .search_mode(SearchMode::InterchangeReversal)
            .optimize(&nest)
            .expect("baseline");
        assert!(
            compound.mws_after <= baseline.mws_after,
            "compound {} vs baseline {} for {src}",
            compound.mws_after,
            baseline.mws_after,
        );
    }
}

#[test]
fn illegal_transformation_is_rejected_by_legality_not_by_apply() {
    // apply_transform is mechanical; legality lives in loopmem-dep.
    let nest =
        parse("array A[20][20]\nfor i = 1 to 10 { for j = 1 to 10 { A[i][j] = A[i-1][j+2]; } }")
            .unwrap();
    let deps = analyze(&nest);
    let interchange = IMat::from_rows(&[vec![0, 1], vec![1, 0]]);
    assert!(!is_legal(&interchange, &deps));
    // It still applies (measuring an illegal order is allowed) …
    let out = apply_transform(&nest, &interchange).unwrap();
    // … and preserves the access set even though it breaks dataflow order.
    assert_eq!(
        simulate(&out).distinct_total(),
        simulate(&nest).distinct_total()
    );
}
