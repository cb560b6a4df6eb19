//! Engine-equivalence suite for the lane-split pass-1 kernels and the
//! pass-2 window fold.
//!
//! Seeded random nests per kernel class — stride-0, stride-±1,
//! general-stride, delinearized large strides, and the sparse hashmap
//! fallback — are checked against the legacy per-element hashmap engine,
//! with and without the profile, at worker-thread counts
//! t ∈ {1, 2, 3, 4}; an odd worker count cuts
//! the chunks unevenly. The random nests are small, so their t > 1 legs
//! sweep serially (see `sweep_threads`). Each class also runs its pair
//! from `common/fold_boundary.rs`, one nest on each side of the fold's
//! sparse/dense boundary, both large enough that the t > 1 legs really
//! sweep in parallel, and the time-looped nests there check the split on
//! a loop other than the outermost. Every generated source is
//! reproducible from the fixed per-class seed, so a failure names the
//! exact nest.

use loopmem_ir::{parse, LoopNest};
use loopmem_linalg::rng::Lcg;
use loopmem_sim::{
    bench_pass1_interleaved, simulate_hashmap, simulate_hashmap_with_profile, sweep_threads,
    try_simulate_with_threads, AnalysisBudget, SimResult,
};

/// The dense engine's exact answer at `threads` workers.
fn simulate(nest: &LoopNest, want_profile: bool, threads: usize) -> SimResult {
    try_simulate_with_threads(nest, want_profile, threads, &AnalysisBudget::unlimited()).unwrap()
}

include!("common/fold_boundary.rs");

/// Asserts the dense lane-split engine matches the hashmap reference
/// bit-for-bit (iterations, per-array stats, MWS, full profile) for
/// every pinned thread count, that the profile-off path — the one
/// `Session::simulate` runs — matches the reference without a profile,
/// and that the legacy interleaved pass-1 comparator agrees on the
/// iteration count.
fn assert_engines_agree(src: &str) {
    let nest = parse(src).unwrap_or_else(|e| panic!("parse failed for:\n{src}\n{e:?}"));
    let reference = simulate_hashmap_with_profile(&nest);
    let reference_off = simulate_hashmap(&nest);
    for threads in [1usize, 2, 3, 4] {
        let got = simulate(&nest, true, threads);
        assert_eq!(
            got.iterations, reference.iterations,
            "iterations diverge at t={threads} for:\n{src}"
        );
        assert_eq!(
            got.mws_total, reference.mws_total,
            "mws_total diverges at t={threads} for:\n{src}"
        );
        assert_eq!(
            got.per_array, reference.per_array,
            "per-array stats diverge at t={threads} for:\n{src}"
        );
        assert_eq!(
            got.profile, reference.profile,
            "window profile diverges at t={threads} for:\n{src}"
        );
        let off = simulate(&nest, false, threads);
        assert_eq!(
            off.iterations, reference_off.iterations,
            "profile off, t={threads}:\n{src}"
        );
        assert_eq!(
            off.mws_total, reference_off.mws_total,
            "profile off, t={threads}:\n{src}"
        );
        assert_eq!(
            off.per_array, reference_off.per_array,
            "profile off, t={threads}:\n{src}"
        );
        assert_eq!(off.profile, None, "profile off, t={threads}:\n{src}");
    }
    assert_eq!(bench_pass1_interleaved(&nest), reference.iterations);
}

/// [`assert_engines_agree`] on a nest large enough that its t ∈ {2, 3, 4}
/// legs really sweep in parallel.
fn assert_parallel_engines_agree(src: &str) {
    let nest = parse(src).unwrap_or_else(|e| panic!("parse failed for:\n{src}\n{e:?}"));
    for threads in [2, 3, 4] {
        assert_eq!(
            sweep_threads(&nest, threads),
            threads,
            "t={threads} would sweep serially:\n{src}"
        );
    }
    assert_engines_agree(src);
}

/// Runs `class`'s pair of fold-boundary nests.
fn assert_boundary_pair_agrees(class: &str) {
    let (_, sparse_in_time, dense_in_time) = FOLD_BOUNDARY
        .into_iter()
        .find(|pair| pair.0 == class)
        .unwrap_or_else(|| panic!("no fold-boundary pair for {class}"));
    assert_parallel_engines_agree(sparse_in_time);
    assert_parallel_engines_agree(dense_in_time);
}

#[test]
fn stride0_references_agree() {
    // Innermost-invariant subscripts: the run kernel collapses a whole
    // run into one min/max pair.
    let mut rng = Lcg::new(0x51D0_0001);
    for case in 0..24u64 {
        let c = rng.range_i64(1, 4);
        let k = rng.range_i64(1, 9);
        let ihi = rng.range_i64(4, 16);
        let jhi = rng.range_i64(4, 16);
        let n = c * ihi + k + c * ihi + 20;
        let src = match case % 3 {
            // Sole stride-0 reference.
            0 => format!(
                "array A[{n}]\nfor i = 1 to {ihi} {{ for j = 1 to {jhi} {{ A[{c}i + {k}]; }} }}"
            ),
            // Two stride-0 references of one array (max-lane fold).
            1 => format!(
                "array A[{n}]\nfor i = 1 to {ihi} {{ for j = 1 to {jhi} {{ A[{c}i + {k}] = A[{c}i + {}]; }} }}",
                k + 1
            ),
            // Depth-3: stride 0 in the innermost variable only.
            _ => format!(
                "array A[{n}]\nfor i = 1 to {ihi} {{ for j = 1 to 5 {{ for k = 1 to {jhi} {{ A[{c}i + j]; }} }} }}"
            ),
        };
        assert_engines_agree(&src);
    }
    assert_boundary_pair_agrees("stride0");
}

#[test]
fn stride_plus_one_references_agree() {
    // Contiguous ascending runs: slice-fill `last` lanes (sole refs) and
    // min/max lanes (stencil pairs).
    let mut rng = Lcg::new(0x51D0_0002);
    for case in 0..24u64 {
        let ihi = rng.range_i64(4, 20);
        let jhi = rng.range_i64(4, 20);
        let k = rng.range_i64(1, 6);
        let src = match case % 3 {
            // Sole reference, 1-D, offset j + c·i.
            0 => format!(
                "array X[600]\nfor i = 1 to {ihi} {{ for j = 1 to {jhi} {{ X[{k}i + j]; }} }}"
            ),
            // 2-D stencil: two refs, same column stride +1.
            1 => format!(
                "array A[24][24]\nfor i = 2 to {} {{ for j = 1 to {jhi} {{ A[i][j] = A[i-1][j]; }} }}",
                ihi.min(20) + 2
            ),
            // Triangular inner bounds.
            _ => format!(
                "array X[600]\nfor i = 1 to {ihi} {{ for j = i to {} {{ X[{k}i + j] = X[{k}i + j + 2]; }} }}",
                jhi + 4
            ),
        };
        assert_engines_agree(&src);
    }
    assert_boundary_pair_agrees("stride+1");
}

#[test]
fn stride_minus_one_references_agree() {
    // Contiguous descending runs: the kernels write the lanes back to
    // front with decreasing stamps.
    let mut rng = Lcg::new(0x51D0_0003);
    for case in 0..24u64 {
        let ihi = rng.range_i64(4, 18);
        let jhi = rng.range_i64(4, 18);
        let c = rng.range_i64(1, 4);
        let base = 40 + jhi;
        let src = match case % 3 {
            // Sole descending reference.
            0 => format!(
                "array X[200]\nfor i = 1 to {ihi} {{ for j = 1 to {jhi} {{ X[{base} - j + {c}i]; }} }}"
            ),
            // Ascending against descending: runs cross mid-way.
            1 => format!(
                "array X[200]\nfor i = 1 to {ihi} {{ for j = 1 to {jhi} {{ X[{c}i + j] = X[{base} - j]; }} }}"
            ),
            // Depth-3 with a descending innermost subscript.
            _ => format!(
                "array X[200]\nfor i = 1 to {ihi} {{ for j = 1 to 4 {{ for k = 1 to {jhi} {{ X[{base} - k + j]; }} }} }}"
            ),
        };
        assert_engines_agree(&src);
    }
    assert_boundary_pair_agrees("stride-1");
}

#[test]
fn general_stride_references_agree() {
    // Example-8 style interleavings: |stride| ≥ 2 walks the lanes with
    // gaps, exercising the strided branch-free kernel.
    let mut rng = Lcg::new(0x51D0_0004);
    for case in 0..24u64 {
        let ihi = rng.range_i64(4, 18);
        let jhi = rng.range_i64(4, 14);
        let s = [2i64, 3, 5, 7][(rng.next_u64() % 4) as usize];
        let c = rng.range_i64(1, 4);
        let base = s * jhi + 20;
        let src = match case % 3 {
            // Sole strided reference.
            0 => format!(
                "array X[800]\nfor i = 1 to {ihi} {{ for j = 1 to {jhi} {{ X[{c}i + {s}j]; }} }}"
            ),
            // The paper's Example 8 shape: two refs, shifted constants.
            1 => format!(
                "array X[800]\nfor i = 1 to {ihi} {{ for j = 1 to {jhi} {{ X[{c}i + {s}j + 1] = X[{c}i + {s}j + 5]; }} }}"
            ),
            // Negative stride with positive offset to stay in range.
            _ => format!(
                "array X[800]\nfor i = 1 to {ihi} {{ for j = 1 to {jhi} {{ X[{base} - {s}j + {c}i]; }} }}"
            ),
        };
        assert_engines_agree(&src);
    }
    assert_boundary_pair_agrees("general");
}

#[test]
fn delinearized_references_agree() {
    // Subscript strides so large the element box fails the sparsity test:
    // the planner delinearizes `X[10⁸·i + j]` into the cells `(i, j)` —
    // including mixed nests next to a dense stride-1 array.
    let mut rng = Lcg::new(0x51D0_0005);
    for case in 0..12u64 {
        let ihi = rng.range_i64(3, 12);
        let jhi = rng.range_i64(3, 8);
        let src = match case % 2 {
            0 => format!(
                "array X[2000000000]\nfor i = 1 to {ihi} {{ for j = 1 to {jhi} {{ X[100000000i + j]; }} }}"
            ),
            // One delinearized array interleaved with one dense stride-1
            // array.
            _ => format!(
                "array X[2000000000]\narray B[60]\nfor i = 1 to {ihi} {{ for j = 1 to {jhi} {{ X[100000000i + j] = B[j + i]; }} }}"
            ),
        };
        assert_engines_agree(&src);
    }
    assert_boundary_pair_agrees("delinearized");
}

#[test]
fn sparse_fallback_references_agree() {
    // Subscripts as sparse, whose low part `99999989·j` spans more than
    // the stride 100000007: no delinearization fits, and the planner
    // demotes the array to the hashmap path — including mixed nests where
    // one array stays dense, exercising the split dense-kernel /
    // per-iteration sparse loop.
    let mut rng = Lcg::new(0x51D0_0006);
    for case in 0..12u64 {
        let ihi = rng.range_i64(3, 12);
        let jhi = rng.range_i64(3, 8);
        let src = match case % 2 {
            0 => format!(
                "array X[3000000000]\nfor i = 1 to {ihi} {{ for j = 1 to {jhi} {{ X[100000007i + 99999989j]; }} }}"
            ),
            // One sparse array interleaved with one dense stride-1 array.
            _ => format!(
                "array X[3000000000]\narray B[60]\nfor i = 1 to {ihi} {{ for j = 1 to {jhi} {{ X[100000007i + 99999989j] = B[j + i]; }} }}"
            ),
        };
        assert_engines_agree(&src);
    }
    assert_boundary_pair_agrees("hashmap");
}

/// A time loop around a row stencil and an upper triangle: pass 1 splits
/// on `i`, not on `t`, and each band's stamps start where the nest's
/// clock says.
#[test]
fn time_looped_nests_agree() {
    for (_, src) in TIME_LOOPED {
        assert_parallel_engines_agree(src);
    }
}

#[test]
fn triangular_bounds_agree() {
    // Volume-cut chunks over triangular outer ranges.
    assert_boundary_pair_agrees("triangular");
}

/// Multi-array nests: per-array fields share one packed lane entry,
/// dense in time and sparse in time. The first is a triangle, so its
/// 370² range box reaches the parallel cutoff at half the iterations.
#[test]
fn multi_array_nests_agree() {
    assert_parallel_engines_agree(
        "array A[372][371]\narray B[371][372]\narray C[742]\n\
         for i = 2 to 371 { for j = i - 1 to 370 { A[i][j] = A[i-1][j] + B[j][i] + C[i + j]; } }",
    );
    assert_parallel_engines_agree(
        "array Y[41]\narray X[41]\nfor i = 1 to 40 { for j = 1 to 3300 { Y[i] = Y[i] + X[i]; } }",
    );
}

/// Fold edge cases, with and without the profile. Each nest but the
/// empty one (which has no iterations to split) is large enough to
/// sweep in parallel at t ∈ {2, 4}.
#[test]
fn fold_edge_cases_agree() {
    // Elements touched exactly once (first == last), alone and next to
    // reused ones.
    assert_parallel_engines_agree(
        "array A[370][370]\nfor i = 1 to 363 { for j = 1 to 363 { A[i][j]; } }",
    );
    assert_parallel_engines_agree(
        "array A[370][370]\narray X[370]\nfor i = 1 to 363 { for j = 1 to 363 { A[i][j] = X[i]; } }",
    );
    // More than 127 references: the lane needs 16-bit fields. The
    // 5-deep simplex's range box (11⁵) reaches the parallel cutoff while
    // it runs only C(15, 5) = 3003 iterations.
    let reads = |v: &str| {
        (0..130)
            .map(|k| format!("A[{v} + {k}]; "))
            .collect::<String>()
    };
    assert_engines_agree(&format!(
        "array A[200]\nfor i = 1 to 50 {{ {}}}",
        reads("i")
    ));
    assert_parallel_engines_agree(&format!(
        "array A[200]\nfor a = 1 to 11 {{ for b = a to 11 {{ for c = b to 11 {{ \
         for d = c to 11 {{ for e = d to 11 {{ {}}} }} }} }} }}",
        reads("e")
    ));
    // An empty nest.
    assert_engines_agree("array A[10]\nfor i = 5 to 4 { A[i]; }");
}
