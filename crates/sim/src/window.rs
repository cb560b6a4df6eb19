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

use crate::budget::{AnalysisBudget, BudgetTracker};
use crate::dense::{contain, try_pass1};
use crate::exec::for_each_iteration;
use loopmem_ir::{AnalysisError, ArrayId, LoopNest};
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
    /// Total live-element count after each iteration (only populated when
    /// [`try_simulate_with_threads`] is asked for it); `profile[t]` is
    /// `Σ_X |W_X(I_t)|`.
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

/// Exact simulation of one nest on the dense-event engine
/// ([`crate::dense`]), on `threads` workers, with the per-iteration window
/// profile when `want_profile` is set (one `u64` per iteration).
///
/// Governed: never panics and respects `budget`. On a budget trip the
/// error carries salvaged-prefix or analytical MWS bounds
/// ([`crate::budget::analytic_nest_bounds`]); arithmetic overflow and
/// contained panics (`nest: 0`) surface as typed [`AnalysisError`]
/// variants. Exact results and `Exhausted` payloads are both bit-identical
/// for every `threads` value.
///
/// `loopmem::Session::simulate` is the front door (in `loopmem-core`,
/// which this crate cannot depend on); this function serves callers that
/// need the profile or live inside this crate.
pub fn try_simulate_with_threads(
    nest: &LoopNest,
    want_profile: bool,
    threads: usize,
    budget: &AnalysisBudget,
) -> Result<SimResult, AnalysisError> {
    let tracker = BudgetTracker::new(budget);
    simulate_nest(nest, want_profile, threads, &tracker, true)
}

/// [`try_simulate_with_threads`] without a profile, charging an externally
/// owned tracker: for callers coordinating several simulations under one
/// deadline and one cumulative iteration budget (the §4 search sweeps its
/// baseline and every candidate against a single tracker). Such a sweep
/// is not the owner's answer: a budget trip reports the purely analytic
/// bounds, never a salvaged prefix (the search reports the original
/// nest's bounds, not a candidate's), and the sweep records no trace
/// events, so it runs on the untraced chunk grid even when the tracker
/// carries a sink.
pub fn try_simulate_tracked(
    nest: &LoopNest,
    threads: usize,
    tracker: &BudgetTracker,
) -> Result<SimResult, AnalysisError> {
    simulate_nest(nest, false, threads, tracker, false)
}

/// The one nest simulation: governed pass 1 ([`try_pass1`], which owns the
/// table gate, the trip mapping and panic containment) followed by the
/// per-array window fold, itself contained too.
fn simulate_nest(
    nest: &LoopNest,
    want_profile: bool,
    threads: usize,
    tracker: &BudgetTracker,
    reported: bool,
) -> Result<SimResult, AnalysisError> {
    let np = try_pass1(0, nest, threads, tracker, reported)?;
    contain(0, || Ok(np.finish(want_profile)))
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
    let budget = AnalysisBudget::unlimited()
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

    fn simulate(nest: &LoopNest) -> SimResult {
        try_simulate_with_threads(nest, false, 1, &AnalysisBudget::unlimited()).unwrap()
    }

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
        let s = try_simulate_with_threads(&nest, true, 1, &AnalysisBudget::unlimited()).unwrap();
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
