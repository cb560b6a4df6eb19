//! Engine-equivalence tests for the sharded program engine: the batch
//! path must match a nest-by-nest serial sweep *exactly* — same MWS, same
//! boundary sets, same distinct counts — for every thread count.
//!
//! The reference implementation below is deliberately independent of the
//! production code: one global hashmap keyed by (array, coordinates) over
//! a single global clock, the way the program engine worked before pass 1
//! was sharded.

use loopmem_ir::{parse_program, ArrayId, Program};
use loopmem_sim::{
    for_each_iteration, thread_count, try_simulate_program_tracked, BudgetTracker, ProgramSimResult,
};
use std::collections::HashMap;

/// The program engine's exact answer at `threads` workers.
fn simulate_program(program: &Program, threads: usize) -> ProgramSimResult {
    let gov = try_simulate_program_tracked(program, threads, &BudgetTracker::unlimited()).unwrap();
    assert!(gov.all_exact());
    gov.sim
}

/// Serial global-clock reference: nests swept in order, one shared touch
/// table, one sweep.
fn reference_simulate(program: &Program) -> ProgramSimResult {
    let mut touches: HashMap<(usize, Vec<i64>), (u64, u64)> = HashMap::new();
    let mut per_nest_iterations = Vec::new();
    let mut per_nest_mws = Vec::new();
    let mut nest_end = Vec::new();
    let mut t = 0u64;
    for nest in program.nests() {
        let start = t;
        // Nest-local touch table with its own clock, for the per-nest MWS.
        let mut local: HashMap<(usize, Vec<i64>), (u64, u64)> = HashMap::new();
        let mut lt = 0u64;
        for_each_iteration(nest, |it| {
            for r in nest.refs() {
                let key = (r.array.0, r.index_at(it));
                touches
                    .entry(key.clone())
                    .and_modify(|e| e.1 = t)
                    .or_insert((t, t));
                local
                    .entry(key)
                    .and_modify(|e| e.1 = lt)
                    .or_insert((lt, lt));
            }
            t += 1;
            lt += 1;
        });
        per_nest_iterations.push(t - start);
        nest_end.push(t);
        let mut delta = vec![0i64; lt as usize + 1];
        for &(f, l) in local.values() {
            if f < l {
                delta[f as usize] += 1;
                delta[l as usize] -= 1;
            }
        }
        let mut cur = 0i64;
        let mut peak = 0i64;
        for d in delta {
            cur += d;
            peak = peak.max(cur);
        }
        per_nest_mws.push(peak as u64);
    }
    let iterations = t as usize;
    let mut add = vec![0i64; iterations.max(1)];
    let mut rem = vec![0i64; iterations.max(1)];
    for &(f, l) in touches.values() {
        add[f as usize] += 1;
        rem[l as usize] += 1;
    }
    let mut cur = 0i64;
    let mut peak = 0i64;
    let mut peak_t = 0u64;
    let mut boundary_live = Vec::new();
    let mut next_boundary = 0usize;
    for ti in 0..iterations {
        cur += add[ti] - rem[ti];
        if cur > peak {
            peak = cur;
            peak_t = ti as u64;
        }
        while next_boundary + 1 < nest_end.len() && (ti as u64 + 1) == nest_end[next_boundary] {
            boundary_live.push(cur as u64);
            next_boundary += 1;
        }
    }
    let peak_nest = nest_end.iter().position(|&end| peak_t < end).unwrap_or(0);
    let mut distinct: HashMap<ArrayId, u64> = HashMap::new();
    for (a, _) in touches.keys() {
        *distinct.entry(ArrayId(*a)).or_insert(0) += 1;
    }
    // An element whose lifetime starts in nest fk and ends in nest lk > fk
    // crosses a boundary of every nest k in fk..=lk.
    let mut live_through = vec![0u64; nest_end.len()];
    for &(f, l) in touches.values() {
        if f < l {
            let fk = nest_end.partition_point(|&end| end <= f);
            let lk = nest_end.partition_point(|&end| end <= l);
            if lk > fk {
                for slot in &mut live_through[fk..=lk] {
                    *slot += 1;
                }
            }
        }
    }
    ProgramSimResult {
        per_nest_iterations,
        mws_total: peak as u64,
        per_nest_mws,
        boundary_live,
        live_through,
        distinct,
        peak_nest,
    }
}

fn assert_same(a: &ProgramSimResult, b: &ProgramSimResult) {
    assert_eq!(a.per_nest_iterations, b.per_nest_iterations);
    assert_eq!(a.mws_total, b.mws_total);
    assert_eq!(a.per_nest_mws, b.per_nest_mws);
    assert_eq!(a.boundary_live, b.boundary_live);
    assert_eq!(a.live_through, b.live_through);
    assert_eq!(a.distinct, b.distinct);
    assert_eq!(a.peak_nest, b.peak_nest);
}

/// Paper-kernel-shaped programs plus a triangular-nest program and a
/// delinearized one; the batch engine must match the reference for
/// t ∈ {1, 2, 4}.
fn programs() -> Vec<Program> {
    [
        // Example 8's reuse kernel feeding a consumer nest.
        "array X[200]\narray Y[200]\n\
         for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }\n\
         for i = 1 to 160 { Y[i] = X[i]; }",
        // Three-phase stencil pipeline (Example 2 shape).
        "array A[12][12]\narray B[12][12]\n\
         for i = 1 to 10 { for j = 1 to 10 { A[i][j] = A[i-1][j+2]; } }\n\
         for i = 1 to 10 { for j = 1 to 10 { B[i][j] = A[i][j]; } }\n\
         for i = 2 to 10 { for j = 1 to 10 { B[i][j] = B[i-1][j]; } }",
        // Triangular-nest program: lower- and upper-triangle sweeps over a
        // shared array, with a rectangular producer in front.
        "array L[30][30]\narray U[30][30]\n\
         for i = 1 to 30 { for j = 1 to 30 { L[i][j] = U[i][j]; } }\n\
         for i = 1 to 30 { for j = i to 30 { U[i][j] = L[j][i]; } }\n\
         for i = 1 to 30 { for j = 1 to i { L[i][j] = U[j][i]; } }",
        // Single-nest program (no boundaries at all).
        "array A[16][16]\nfor i = 2 to 16 { for j = 1 to 16 { A[i][j] = A[i-1][j]; } }",
        // A delinearized nest (its table holds the cells `(i, j)`, not
        // elements) feeding a dense one: 20 of its elements reach the
        // second nest, whose table is the only element box.
        "array X[3000000031]\n\
         for i = 1 to 30 { for j = 1 to 30 { X[100000000i + j] = X[100000000i + j - 1]; } }\n\
         for k = 100000001 to 100000020 { X[k]; }",
    ]
    .iter()
    .map(|src| parse_program(src).unwrap())
    .collect()
}

#[test]
fn batch_matches_reference_for_all_thread_counts() {
    for p in programs() {
        let want = reference_simulate(&p);
        for threads in [1, 2, 4] {
            assert_same(&simulate_program(&p, threads), &want);
        }
        assert_same(&simulate_program(&p, thread_count()), &want);
    }
}

#[test]
fn batch_default_equals_pinned_one_thread() {
    for p in programs() {
        assert_same(
            &simulate_program(&p, thread_count()),
            &simulate_program(&p, 1),
        );
    }
}
