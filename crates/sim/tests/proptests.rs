//! Property-style tests: simulator invariants (stack property of LRU, OPT
//! optimality ordering, window/capacity duality). Deterministic (seeded
//! `Lcg`), no external dependencies.

use loopmem_ir::{parse, LoopNest};
use loopmem_linalg::Lcg;
use loopmem_sim::{
    min_perfect_capacity, misses, try_simulate_with_threads, AnalysisBudget, Policy, SimResult,
    Trace,
};

/// The nest's exact answer, with the window profile.
fn simulate(nest: &LoopNest) -> SimResult {
    try_simulate_with_threads(nest, true, 1, &AnalysisBudget::unlimited()).unwrap()
}

fn random_nest(rng: &mut Lcg) -> String {
    let n1 = rng.range_i64(3, 9);
    let n2 = rng.range_i64(3, 9);
    let d1 = rng.range_i64(-2, 2);
    let d2 = rng.range_i64(-2, 2);
    let p = rng.range_i64(1, 3);
    let c = rng.range_i64(0, 5);
    format!(
        "array A[{}][{}]\narray B[99]\n\
         for i = 1 to {n1} {{ for j = 1 to {n2} {{ \
         A[i + 3][j + 3] = A[i + {a}][j + {b}] + B[{p}*i + j + {cc}]; }} }}",
        n1 + 6,
        n2 + 6,
        a = d1 + 3,
        b = d2 + 3,
        cc = c + 10,
    )
}

#[test]
fn lru_has_the_stack_property() {
    let mut rng = Lcg::new(0x51);
    for _ in 0..48 {
        let src = random_nest(&mut rng);
        // Inclusion: a larger LRU buffer never misses more.
        let t = Trace::from_nest(&parse(&src).expect("parses"));
        let mut prev = u64::MAX;
        for c in [1usize, 2, 3, 5, 8, 13, 21, 34, 55, 89] {
            let m = misses(&t, c, Policy::Lru);
            assert!(m <= prev, "capacity {c}: {m} > {prev} ({src})");
            prev = m;
        }
    }
}

#[test]
fn opt_dominates_lru_everywhere() {
    let mut rng = Lcg::new(0x52);
    for _ in 0..48 {
        let src = random_nest(&mut rng);
        let t = Trace::from_nest(&parse(&src).expect("parses"));
        for c in [1usize, 2, 4, 8, 16, 32, 64] {
            assert!(
                misses(&t, c, Policy::Opt) <= misses(&t, c, Policy::Lru),
                "capacity {c} ({src})"
            );
        }
    }
}

#[test]
fn misses_never_below_cold_and_never_above_accesses() {
    let mut rng = Lcg::new(0x53);
    for _ in 0..48 {
        let src = random_nest(&mut rng);
        let t = Trace::from_nest(&parse(&src).expect("parses"));
        for p in [Policy::Lru, Policy::Opt] {
            for c in [1usize, 7, 64] {
                let m = misses(&t, c, p);
                assert!(m >= t.distinct() as u64, "{src}");
                assert!(m <= t.len() as u64, "{src}");
            }
        }
    }
}

#[test]
fn perfect_capacity_bracketed_by_window() {
    let mut rng = Lcg::new(0x54);
    for _ in 0..48 {
        let src = random_nest(&mut rng);
        // OPT's minimum perfect capacity is at most MWS + in-flight refs,
        // and at least 1.
        let nest = parse(&src).expect("parses");
        let mws = simulate(&nest).mws_total as usize;
        let refs = nest.refs().count();
        let t = Trace::from_nest(&nest);
        let perfect = min_perfect_capacity(&t, Policy::Opt);
        assert!(perfect >= 1);
        assert!(
            perfect <= mws + refs + 1,
            "perfect {perfect} vs MWS {mws} + {refs} ({src})"
        );
    }
}

#[test]
fn profile_peak_equals_mws() {
    let mut rng = Lcg::new(0x55);
    for _ in 0..48 {
        let src = random_nest(&mut rng);
        let nest = parse(&src).expect("parses");
        let s = simulate(&nest);
        let peak = s
            .profile
            .as_ref()
            .and_then(|p| p.iter().max().copied())
            .unwrap_or(0);
        assert_eq!(peak, s.mws_total, "{src}");
        assert_eq!(
            s.profile.as_ref().map(Vec::len).unwrap_or(0) as u64,
            s.iterations,
            "{src}"
        );
    }
}

#[test]
fn per_array_windows_bound_the_total() {
    let mut rng = Lcg::new(0x56);
    for _ in 0..48 {
        let src = random_nest(&mut rng);
        let nest = parse(&src).expect("parses");
        let s = simulate(&nest);
        let sum: u64 = s.per_array.values().map(|a| a.mws).sum();
        let max: u64 = s.per_array.values().map(|a| a.mws).max().unwrap_or(0);
        assert!(s.mws_total <= sum, "total exceeds sum of peaks ({src})");
        assert!(
            s.mws_total >= max,
            "total below largest per-array peak ({src})"
        );
    }
}
