//! Exact reference-window tracking (§2.3 of the paper).
//!
//! The reference window `W_X(I)` is the set of elements of array `X`
//! referenced at some iteration `J₁ ⪯ I` *and* referenced again at some
//! `J₂ ≻ I`. Its size is exactly the number of values that must stay in
//! local memory after iteration `I` for every reuse to be served on-chip;
//! the maximum over `I` (the MWS) is the minimum adequate buffer capacity.
//!
//! The tracker runs in two passes over the access stream:
//!
//! 1. record, per element, the first and last iteration index touching it
//!    (an element's window membership is `first(x) ≤ t < last(x)`);
//! 2. sweep iterations once, adding elements at their first touch and
//!    dropping them at their last, maximizing the live count per array and
//!    in total.

use crate::exec::for_each_iteration;
use loopmem_ir::{ArrayId, LoopNest};
use std::collections::HashMap;

/// Per-array simulation statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ArrayStats {
    /// Number of distinct elements referenced.
    pub distinct: u64,
    /// Total number of accesses (reads + writes).
    pub accesses: u64,
    /// Exact maximum window size of the array.
    pub mws: u64,
}

/// Result of simulating a nest.
#[derive(Clone, Debug, Default)]
pub struct SimResult {
    /// Number of iterations executed.
    pub iterations: u64,
    /// Per-array statistics.
    pub per_array: HashMap<ArrayId, ArrayStats>,
    /// Maximum over iterations of the *summed* per-array window sizes —
    /// the multi-array MWS of §2.3.
    pub mws_total: u64,
    /// Total live-element count after each iteration (only populated by
    /// [`simulate_with_profile`]); `profile[t]` is `Σ_X |W_X(I_t)|`.
    pub profile: Option<Vec<u64>>,
}

impl SimResult {
    /// Statistics of one array.
    ///
    /// # Panics
    ///
    /// Panics if the nest never referenced `array`.
    pub fn array(&self, array: ArrayId) -> &ArrayStats {
        self.per_array
            .get(&array)
            .expect("array is not referenced by the nest")
    }

    /// Total distinct elements over all arrays.
    pub fn distinct_total(&self) -> u64 {
        self.per_array.values().map(|s| s.distinct).sum()
    }
}

/// Simulates the nest and returns exact statistics (no profile).
///
/// Runs the dense-event engine ([`crate::dense`]): flat touch tables with
/// a hashmap fallback, swept in parallel for large nests (worker count
/// from `LOOPMEM_THREADS`, defaulting to the available parallelism).
///
/// The unified front door for analysis — carrying threads, budget, fault
/// plan and trace sink in one builder — is `loopmem::Session` (defined in
/// `loopmem-core`, which this crate cannot depend on).
pub fn simulate(nest: &LoopNest) -> SimResult {
    crate::dense::run(nest, false, crate::dense::thread_count())
}

/// Simulates the nest, additionally recording the per-iteration total
/// window profile (costs one `u64` per iteration).
pub fn simulate_with_profile(nest: &LoopNest) -> SimResult {
    crate::dense::run(nest, true, crate::dense::thread_count())
}

/// Simulates with a pinned worker-thread count (and optional profile).
/// The result is bit-identical for every `threads` value; use `threads =
/// 1` when the caller is itself running simulations on a thread pool.
pub fn simulate_with_threads(nest: &LoopNest, want_profile: bool, threads: usize) -> SimResult {
    crate::dense::run(nest, want_profile, threads)
}

/// Governed simulation: like [`simulate`], but never panics and respects
/// `budget`. On a budget trip the error carries analytical MWS bounds
/// ([`crate::budget::analytic_nest_bounds`]); arithmetic overflow and
/// contained panics surface as typed [`AnalysisError`] variants.
pub fn try_simulate(
    nest: &LoopNest,
    budget: &crate::budget::AnalysisBudget,
) -> Result<SimResult, loopmem_ir::AnalysisError> {
    crate::dense::try_run(nest, false, crate::dense::thread_count(), budget)
}

/// Governed variant of [`simulate_with_threads`]. Exact results and
/// `Exhausted` payloads are both bit-identical for every `threads` value
/// (the analytical fallback depends only on the nest, never on how far a
/// particular sweep got).
///
/// `loopmem::Session::simulate` is the front-door equivalent; the
/// facade's `session_equivalence` tests pin the two bit-identical.
pub fn try_simulate_with_threads(
    nest: &LoopNest,
    want_profile: bool,
    threads: usize,
    budget: &crate::budget::AnalysisBudget,
) -> Result<SimResult, loopmem_ir::AnalysisError> {
    crate::dense::try_run(nest, want_profile, threads, budget)
}

/// Governed simulation charging an externally owned
/// [`BudgetTracker`](crate::budget::BudgetTracker) — for callers
/// coordinating several simulations under one deadline and one cumulative
/// iteration budget (the §4 optimizer sweeps every candidate against a
/// single tracker). `max_table_bytes` caps the dense touch tables exactly
/// as [`AnalysisBudget::with_max_table_bytes`](crate::budget::AnalysisBudget::with_max_table_bytes)
/// would.
pub fn try_simulate_tracked(
    nest: &LoopNest,
    want_profile: bool,
    threads: usize,
    tracker: &crate::budget::BudgetTracker,
    max_table_bytes: Option<u64>,
) -> Result<SimResult, loopmem_ir::AnalysisError> {
    crate::dense::try_run_tracked(nest, want_profile, threads, tracker, max_table_bytes)
}

/// Differential-sanitizer oracle: exact single-threaded simulation of
/// nests small enough to sweep, `None` otherwise.
///
/// Declines (returns `None`, without doing any work) when interval
/// analysis estimates more than `max_iters` iterations, and likewise when
/// the governed sweep trips its budget, overflows, or panics — the caller
/// (`loopmem check --sanitize`) treats `None` as "no oracle available",
/// never as a verdict. Single-threaded and budget-governed, so the result
/// is deterministic and safe to run over untrusted input.
pub fn oracle_simulate(nest: &LoopNest, max_iters: u64) -> Option<SimResult> {
    if crate::budget::estimated_iterations_of(nest) > u128::from(max_iters) {
        return None;
    }
    let budget = crate::budget::AnalysisBudget::unlimited()
        .with_max_iterations(max_iters)
        .with_max_table_bytes(64 << 20);
    try_simulate_with_threads(nest, false, 1, &budget).ok()
}

/// Simulates with the legacy hashmap engine — the reference
/// implementation the dense engine is validated against. Slower; kept for
/// differential tests and benchmarks.
pub fn simulate_hashmap(nest: &LoopNest) -> SimResult {
    run_hashmap(nest, false)
}

/// [`simulate_hashmap`] with the per-iteration window profile.
pub fn simulate_hashmap_with_profile(nest: &LoopNest) -> SimResult {
    run_hashmap(nest, true)
}

fn run_hashmap(nest: &LoopNest, want_profile: bool) -> SimResult {
    // Pass 1: first/last touch per element, per array.
    struct Touch {
        first: u64,
        last: u64,
    }
    let narrays = nest.arrays().len();
    let mut touches: Vec<HashMap<Vec<i64>, Touch>> = (0..narrays).map(|_| HashMap::new()).collect();
    let mut accesses = vec![0u64; narrays];
    let mut t = 0u64;
    for_each_iteration(nest, |iter| {
        for r in nest.refs() {
            let idx = r.index_at(iter);
            accesses[r.array.0] += 1;
            touches[r.array.0]
                .entry(idx)
                .and_modify(|e| e.last = t)
                .or_insert(Touch { first: t, last: t });
        }
        t += 1;
    });
    let iterations = t;

    // Pass 2: sweep. Build per-iteration add/remove counts per array.
    let mut add = vec![vec![0i64; iterations as usize]; narrays];
    let mut rem = vec![vec![0i64; iterations as usize]; narrays];
    for (a, map) in touches.iter().enumerate() {
        for touch in map.values() {
            add[a][touch.first as usize] += 1;
            rem[a][touch.last as usize] += 1;
        }
    }
    let mut cur = vec![0i64; narrays];
    let mut mws = vec![0i64; narrays];
    let mut cur_total = 0i64;
    let mut mws_total = 0i64;
    let mut profile = want_profile.then(|| Vec::with_capacity(iterations as usize));
    for ti in 0..iterations as usize {
        for a in 0..narrays {
            let delta = add[a][ti] - rem[a][ti];
            cur[a] += delta;
            cur_total += delta;
            mws[a] = mws[a].max(cur[a]);
        }
        mws_total = mws_total.max(cur_total);
        if let Some(p) = profile.as_mut() {
            p.push(cur_total as u64);
        }
    }

    let mut per_array = HashMap::new();
    for (a, map) in touches.iter().enumerate() {
        if accesses[a] == 0 {
            continue;
        }
        per_array.insert(
            ArrayId(a),
            ArrayStats {
                distinct: map.len() as u64,
                accesses: accesses[a],
                mws: mws[a] as u64,
            },
        );
    }
    SimResult {
        iterations,
        per_array,
        mws_total: mws_total as u64,
        profile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopmem_ir::parse;

    #[test]
    fn single_use_elements_never_enter_window() {
        // Every element touched exactly once: window stays empty.
        let nest =
            parse("array A[10][10]\nfor i = 1 to 10 { for j = 1 to 10 { A[i][j]; } }").unwrap();
        let s = simulate(&nest);
        assert_eq!(s.mws_total, 0);
        assert_eq!(s.array(loopmem_ir::ArrayId(0)).distinct, 100);
        assert_eq!(s.array(loopmem_ir::ArrayId(0)).accesses, 100);
        assert_eq!(s.iterations, 100);
    }

    #[test]
    fn example2_distinct_count_matches_paper() {
        let nest = parse(
            "array A[12][12]\nfor i = 1 to 10 { for j = 1 to 10 { A[i][j] = A[i-1][j+2]; } }",
        )
        .unwrap();
        let s = simulate(&nest);
        // A_d = 2*100 - (10-1)(10-2) = 128.
        assert_eq!(s.array(loopmem_ir::ArrayId(0)).distinct, 128);
    }

    #[test]
    fn example8_exact_mws_is_44() {
        // The closed form (§4.2) estimates 50; exact tracking gives 44.
        let nest = parse(
            "array X[200]\n\
             for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
        )
        .unwrap();
        assert_eq!(simulate(&nest).mws_total, 44);
    }

    #[test]
    fn window_profile_shape() {
        // A[i] reused across j: each element lives exactly through the j
        // loop of its i, so the window is 1 while inside a row, 0 after
        // the last reuse. Profile length equals iteration count.
        let nest = parse("array A[10]\nfor i = 1 to 10 { for j = 1 to 5 { A[i]; } }").unwrap();
        let s = simulate_with_profile(&nest);
        let p = s.profile.as_ref().unwrap();
        assert_eq!(p.len(), 50);
        assert_eq!(s.mws_total, 1);
        // Last iteration of each row drops the element.
        assert_eq!(p[4], 0);
        assert_eq!(p[3], 1);
    }

    #[test]
    fn multi_array_total_is_sum_peak() {
        // A[i] live across inner loop; B[j] single-touch per element but
        // reused across outer iterations (j range 1..=5 each time).
        let nest = parse(
            "array A[10]\narray B[5]\n\
             for i = 1 to 10 { for j = 1 to 5 { A[i] = B[j]; } }",
        )
        .unwrap();
        let s = simulate(&nest);
        let a = s.array(loopmem_ir::ArrayId(0));
        let b = s.array(loopmem_ir::ArrayId(1));
        assert_eq!(a.mws, 1);
        assert_eq!(b.mws, 5); // all of B stays live between outer rows
        assert_eq!(s.mws_total, 6);
        assert_eq!(s.distinct_total(), 15);
    }

    #[test]
    fn stencil_window_is_row_plus_halo() {
        // A[i][j] = A[i-1][j]: element (i,j) written at i, read at i+1;
        // window holds one row => MWS = N (+1 transiently).
        let nest = parse(
            "array A[16][16]\n\
             for i = 2 to 16 { for j = 1 to 16 { A[i][j] = A[i-1][j]; } }",
        )
        .unwrap();
        let s = simulate(&nest);
        let mws = s.array(loopmem_ir::ArrayId(0)).mws;
        assert!((16..=17).contains(&mws), "row-sized window, got {mws}");
    }
}
