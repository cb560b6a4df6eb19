//! Differential tests: the dense-event simulator engine must agree with
//! the legacy hashmap engine on every paper kernel and on transformed
//! nests, for every thread count, and the parallel optimizer must match
//! its serial path exactly.

use loopmem_bench::all_kernels;
use loopmem_core::apply_transform;
use loopmem_core::optimize::{minimize_mws, minimize_mws_with_threads, SearchMode};
use loopmem_ir::{parse, LoopNest};
use loopmem_linalg::{IMat, Lcg};
use loopmem_sim::{
    simulate_hashmap, simulate_hashmap_with_profile, simulate_with_threads, sweep_threads,
    SimResult,
};

fn assert_same(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.iterations, b.iterations, "{what}: iterations");
    assert_eq!(a.mws_total, b.mws_total, "{what}: mws_total");
    assert_eq!(a.per_array, b.per_array, "{what}: per_array");
    assert_eq!(a.profile, b.profile, "{what}: profile");
}

#[test]
fn dense_engine_matches_hashmap_on_every_kernel() {
    for k in all_kernels() {
        let nest = k.nest();
        let legacy = simulate_hashmap_with_profile(&nest);
        let dense = simulate_with_threads(&nest, true, 1);
        assert_same(&dense, &legacy, k.name);
    }
}

#[test]
fn thread_count_is_invisible_on_every_kernel() {
    for k in all_kernels() {
        let nest = k.nest();
        let one = simulate_with_threads(&nest, true, 1);
        for threads in [2, 3, 4, 8] {
            let n = simulate_with_threads(&nest, true, threads);
            assert_same(&n, &one, &format!("{} x{}", k.name, threads));
        }
    }
}

/// The profile-off path — what `Session::simulate` runs — against the
/// hashmap engine without a profile, at every thread count.
#[test]
fn profile_off_matches_hashmap_on_every_kernel() {
    for k in all_kernels() {
        let nest = k.nest();
        let legacy = simulate_hashmap(&nest);
        for threads in [1, 2, 4] {
            let dense = simulate_with_threads(&nest, false, threads);
            assert_same(
                &dense,
                &legacy,
                &format!("{} x{} profile off", k.name, threads),
            );
        }
    }
}

/// The paper kernels' shapes scaled past the parallel-sweep cutoff (2¹⁷
/// estimated iterations). The kernels themselves are smaller, so their
/// `threads > 1` runs above sweep serially; these really run in parallel.
fn scaled_kernels() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "2_point",
            "array A[400][400]\nfor i = 2 to 400 { for j = 1 to 400 { A[i][j] = A[i-1][j] + A[i][j]; } }",
        ),
        (
            "3_point",
            "array A[400][400]\nfor i = 2 to 399 { for j = 1 to 400 {\n\
               A[i][j] = A[i-1][j] + A[i][j] + A[i+1][j];\n\
             } }",
        ),
        (
            "sor",
            "array A[400][400]\nfor i = 2 to 399 { for j = 2 to 399 {\n\
               A[i][j] = 0.2 * (A[i][j] + A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1]);\n\
             } }",
        ),
        (
            "matmult",
            "array C[51][51]\narray A[51][51]\narray B[51][51]\n\
             for i = 1 to 51 { for j = 1 to 51 { for k = 1 to 51 {\n\
               C[i][j] = C[i][j] + A[i][k] * B[k][j];\n\
             } } }",
        ),
        (
            "3step_log",
            "array R[110][110]\narray C[46][46]\narray S[8][8]\n\
             for cy = 1 to 8 { for cx = 1 to 8 { for py = 1 to 46 { for px = 1 to 46 {\n\
               S[cy][cx] = S[cy][cx] + R[8*cy + py][8*cx + px] + C[py][px];\n\
             } } } }",
        ),
        (
            "full_search",
            "array R[40][73]\narray C[8][8]\narray S[32][65]\n\
             for dy = 1 to 32 { for dx = 1 to 65 { for py = 1 to 8 { for px = 1 to 8 {\n\
               S[dy][dx] = S[dy][dx] + R[dy + py][dx + px] + C[py][px];\n\
             } } } }",
        ),
        (
            "rasta_flt",
            "array X[23][2888]\narray Y[23][360]\n\
             for t = 1 to 360 { for b = 1 to 23 { for k = 1 to 16 {\n\
               Y[b][t] = Y[b][t] + X[b][8*t - k + 9];\n\
             } } }",
        ),
    ]
}

/// Thread invariance under real parallelism, with and without the
/// profile, on the scaled kernels.
#[test]
fn thread_count_is_invisible_on_scaled_kernels() {
    for (name, src) in scaled_kernels() {
        let nest = parse(src).unwrap();
        let one = simulate_with_threads(&nest, true, 1);
        let one_off = SimResult {
            profile: None,
            ..one.clone()
        };
        for threads in [2, 3, 4, 8] {
            assert_eq!(
                sweep_threads(&nest, threads),
                threads,
                "{name} x{threads} would sweep serially"
            );
            let what = format!("{name} x{threads}");
            assert_same(&simulate_with_threads(&nest, true, threads), &one, &what);
            let off = simulate_with_threads(&nest, false, threads);
            assert_same(&off, &one_off, &format!("{what} profile off"));
        }
    }
}

/// Paper Examples 7–10 as DSL text.
fn paper_examples() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "example7",
            "array X[100]\nfor i = 1 to 20 { for j = 1 to 30 { X[2i - 3j]; } }",
        ),
        (
            "example8",
            "array X[200]\nfor i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
        ),
        (
            "example9",
            "array X[200]\narray Y[100]\n\
             for i = 1 to 20 { for j = 1 to 20 {\n\
               X[2i + 3j + 2] = Y[i + j];\n\
               Y[i + j + 1] = X[2i + 3j + 3];\n\
             } }",
        ),
        (
            "example10",
            "array A[61][51]\n\
             for i = 1 to 10 { for j = 1 to 20 { for k = 1 to 30 { A[3i + k][j + k]; } } }",
        ),
    ]
}

/// Random `n × n` unimodular matrices: products of elementary skews
/// (`k ∈ −2..=2`) and signed row swaps, so every sample is exactly
/// unimodular.
fn unimodular(n: usize, rng: &mut Lcg) -> IMat {
    let mut m = IMat::identity(n);
    for _ in 0..rng.range_usize(1, 4) {
        let i = rng.range_usize(0, n - 1);
        let j = (i + rng.range_usize(1, n - 1)) % n;
        let mut g = IMat::identity(n);
        if rng.range_usize(0, 2) == 0 {
            (g[(i, i)], g[(j, j)], g[(i, j)], g[(j, i)]) = (0, 0, 1, -1);
        } else {
            g[(i, j)] = rng.range_i64(-2, 2);
        }
        m = &g * &m;
    }
    m
}

/// Transformed nests against the hashmap engine, with and without the
/// profile, at t ∈ {1, 2, 4}. The dense engine sizes a transformed nest's
/// tables by the subscripts' ranges over its iteration polytope, which
/// are far tighter than its variable box; the hashmap engine sizes
/// nothing. Inputs: every candidate the optimizer evaluates exactly on
/// the paper corpus (the Figure 2 kernels and Examples 7–10), and seeded
/// random unimodular transforms of the kernels and of their shapes scaled
/// past the parallel-sweep cutoff.
#[test]
fn dense_engine_matches_hashmap_on_transformed_nests() {
    let corpus: Vec<(String, LoopNest)> = all_kernels()
        .iter()
        .map(|k| (k.name.to_string(), k.nest()))
        .chain(
            paper_examples()
                .into_iter()
                .map(|(name, src)| (name.to_string(), parse(src).unwrap())),
        )
        .collect();
    let mut cases: Vec<(String, LoopNest, bool)> = Vec::new();
    for (name, nest) in &corpus {
        let opt = minimize_mws(nest, SearchMode::default()).unwrap();
        for (t, _) in &opt.evaluated {
            cases.push((
                format!("{name} {t:?}"),
                apply_transform(nest, t).unwrap(),
                false,
            ));
        }
    }
    let mut rng = Lcg::new(0xE9);
    for (name, nest) in &corpus {
        for _ in 0..2 {
            let t = unimodular(nest.depth(), &mut rng);
            let what = format!("{name} random {t:?}");
            cases.push((what, apply_transform(nest, &t).unwrap(), false));
        }
    }
    // One 2-, 3- and 4-deep shape past the cutoff, so each depth's
    // transformed sweep really runs in parallel.
    for (name, src) in scaled_kernels() {
        if ["2_point", "matmult", "3step_log"].contains(&name) {
            let nest = parse(src).unwrap();
            let t = unimodular(nest.depth(), &mut rng);
            let what = format!("scaled {name} random {t:?}");
            cases.push((what, apply_transform(&nest, &t).unwrap(), true));
        }
    }
    for (what, nest, parallel) in &cases {
        if *parallel {
            assert_eq!(sweep_threads(nest, 4), 4, "{what} would sweep serially");
        }
        let (on, off) = (simulate_hashmap_with_profile(nest), simulate_hashmap(nest));
        for threads in [1, 2, 4] {
            let what = format!("{what} x{threads}");
            assert_same(&simulate_with_threads(nest, true, threads), &on, &what);
            let dense = simulate_with_threads(nest, false, threads);
            assert_same(&dense, &off, &format!("{what} profile off"));
        }
    }
}

#[test]
fn compound_search_is_deterministic_across_thread_counts() {
    for (name, src) in paper_examples() {
        let nest = parse(src).unwrap();
        let serial = minimize_mws_with_threads(&nest, SearchMode::default(), 1)
            .unwrap_or_else(|e| panic!("{name}: serial search failed: {e}"));
        for threads in [2, 4, 8] {
            let par = minimize_mws_with_threads(&nest, SearchMode::default(), threads)
                .unwrap_or_else(|e| panic!("{name}: parallel search failed: {e}"));
            assert_eq!(
                par.transform, serial.transform,
                "{name} x{threads}: transform"
            );
            assert_eq!(par.mws_before, serial.mws_before, "{name} x{threads}");
            assert_eq!(par.mws_after, serial.mws_after, "{name} x{threads}");
            assert_eq!(
                par.candidates_considered, serial.candidates_considered,
                "{name} x{threads}"
            );
            assert_eq!(
                loopmem_ir::print_nest(&par.transformed),
                loopmem_ir::print_nest(&serial.transformed),
                "{name} x{threads}: transformed nest"
            );
        }
    }
}

#[test]
fn memoization_reports_hits_on_repeated_search() {
    let nest = parse(
        "array X[300]\nfor i = 1 to 23 { for j = 1 to 19 { X[4i - 5j + 100] = X[4i - 5j + 96]; } }",
    )
    .unwrap();
    let first = minimize_mws_with_threads(&nest, SearchMode::default(), 2).unwrap();
    let again = minimize_mws_with_threads(&nest, SearchMode::default(), 2).unwrap();
    assert!(first.cache_hits > 0, "identity candidate must hit the memo");
    assert!(
        again.cache_hits > first.cache_hits,
        "repeat must be mostly cached"
    );
    assert_eq!(again.transform, first.transform);
    assert_eq!(again.mws_after, first.mws_after);
}
