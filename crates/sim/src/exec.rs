//! Lexicographic execution of a loop nest.

use loopmem_ir::LoopNest;
use std::ops::ControlFlow;

/// Calls `f` once per iteration, in execution (lexicographic) order, with
/// the iteration vector. Bounds are evaluated exactly, including the
/// `max`/`min`/`ceil`/`floor` pieces that transformed nests carry; empty
/// ranges execute zero iterations.
///
/// ```
/// let nest = loopmem_ir::parse(
///     "array A[10][10]\nfor i = 1 to 3 { for j = i to 3 { A[i][j]; } }",
/// ).unwrap();
/// let mut count = 0;
/// loopmem_sim::for_each_iteration(&nest, |_| count += 1);
/// assert_eq!(count, 6);
/// ```
pub fn for_each_iteration<F: FnMut(&[i64])>(nest: &LoopNest, mut f: F) {
    let (lo, hi) = outer_range(nest);
    // The adapter closure never breaks, so the result is always `Continue`.
    let _ = try_for_each_iteration_outer::<(), _>(nest, lo, hi, &mut |it| {
        f(it);
        ControlFlow::Continue(())
    });
}

/// The (always constant) value range of the outermost loop. The validator
/// guarantees outermost bounds reference no loop variable, so they are
/// constants; empty nests yield an inverted range.
pub fn outer_range(nest: &LoopNest) -> (i64, i64) {
    let zeros = vec![0i64; nest.depth()];
    let l = &nest.loops()[0];
    (l.lower.eval_lower(&zeros), l.upper.eval_upper(&zeros))
}

/// Like [`for_each_iteration`], but restricts the outermost loop variable
/// to `outer_lo ..= outer_hi` (intersected with the loop's own range by the
/// caller), and early-exiting: the callback returns [`ControlFlow`], and a
/// `Break` stops the sweep immediately (the governed engines use this to
/// bail out when a budget trips or a subscript overflows). Returns the
/// first `Break`, or `Continue(())` after the full stream.
pub fn try_for_each_iteration_outer<B, F: FnMut(&[i64]) -> ControlFlow<B>>(
    nest: &LoopNest,
    outer_lo: i64,
    outer_hi: i64,
    f: &mut F,
) -> ControlFlow<B> {
    let n = nest.depth();
    let mut iter = vec![0i64; n];
    for v in outer_lo..=outer_hi {
        iter[0] = v;
        if n == 1 {
            f(&iter)?;
        } else {
            descend(nest, &mut iter, 1, f)?;
        }
    }
    ControlFlow::Continue(())
}

/// Run-length variant of [`try_for_each_iteration_outer`]: instead of one
/// call per iteration, the callback receives one call per *innermost run*
/// — a maximal block of consecutive iterations that differ only in the
/// innermost loop variable. `f(iter, lo, hi)` is invoked with the outer
/// variables set in `iter[..depth-1]`, and the innermost variable ranging
/// over `lo ..= hi` (never empty: empty runs are skipped, matching the
/// zero iterations they execute). `iter[depth-1]` is scratch — the callback
/// may clobber it (the sparse sweep path writes the running innermost value
/// there); it is reset before the next run's bounds are evaluated, and
/// inner bounds only reference outer variables anyway (validator).
///
/// Concatenating the runs reproduces the lexicographic iteration stream of
/// [`try_for_each_iteration_outer`] exactly; this is the primitive behind
/// the dense engine's lane-split pass-1 kernels, which turn each run into
/// constant-stride table updates instead of per-iteration dot products.
///
/// For depth-1 nests the whole `outer_lo ..= outer_hi` chunk is a single
/// run (the outermost loop *is* the innermost).
pub fn try_for_each_inner_run<B, F: FnMut(&mut [i64], i64, i64) -> ControlFlow<B>>(
    nest: &LoopNest,
    outer_lo: i64,
    outer_hi: i64,
    f: &mut F,
) -> ControlFlow<B> {
    let n = nest.depth();
    let mut iter = vec![0i64; n];
    if n == 1 {
        if outer_lo <= outer_hi {
            f(&mut iter, outer_lo, outer_hi)?;
        }
        return ControlFlow::Continue(());
    }
    for v in outer_lo..=outer_hi {
        iter[0] = v;
        descend_runs(nest, &mut iter, 1, f)?;
    }
    ControlFlow::Continue(())
}

fn descend_runs<B, F: FnMut(&mut [i64], i64, i64) -> ControlFlow<B>>(
    nest: &LoopNest,
    iter: &mut Vec<i64>,
    k: usize,
    f: &mut F,
) -> ControlFlow<B> {
    let l = &nest.loops()[k];
    let lo = l.lower.eval_lower(iter);
    let hi = l.upper.eval_upper(iter);
    if k + 1 == nest.depth() {
        if lo <= hi {
            f(iter, lo, hi)?;
            iter[k] = 0; // the callback may have clobbered the scratch slot
        }
        return ControlFlow::Continue(());
    }
    for v in lo..=hi {
        iter[k] = v;
        descend_runs(nest, iter, k + 1, f)?;
    }
    iter[k] = 0; // outer bounds must not observe stale inner values
    ControlFlow::Continue(())
}

fn descend<B, F: FnMut(&[i64]) -> ControlFlow<B>>(
    nest: &LoopNest,
    iter: &mut Vec<i64>,
    k: usize,
    f: &mut F,
) -> ControlFlow<B> {
    let l = &nest.loops()[k];
    let lo = l.lower.eval_lower(iter);
    let hi = l.upper.eval_upper(iter);
    for v in lo..=hi {
        iter[k] = v;
        if k + 1 == nest.depth() {
            f(iter)?;
        } else {
            descend(nest, iter, k + 1, f)?;
        }
    }
    iter[k] = 0; // outer bounds must not observe stale inner values
    ControlFlow::Continue(())
}

/// Number of iterations the nest executes.
pub fn count_iterations(nest: &LoopNest) -> u64 {
    let mut n = 0u64;
    for_each_iteration(nest, |_| n += 1);
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopmem_ir::parse;

    #[test]
    fn rectangular_count_and_order() {
        let nest = parse("array A[4]\nfor i = 1 to 2 { for j = 1 to 2 { A[i]; } }").unwrap();
        let mut seen = Vec::new();
        for_each_iteration(&nest, |it| seen.push(it.to_vec()));
        assert_eq!(seen, vec![vec![1, 1], vec![1, 2], vec![2, 1], vec![2, 2]]);
        assert_eq!(count_iterations(&nest), 4);
    }

    #[test]
    fn triangular_count() {
        let nest =
            parse("array A[10][10]\nfor i = 1 to 10 { for j = i to 10 { A[i][j]; } }").unwrap();
        assert_eq!(count_iterations(&nest), 55);
    }

    #[test]
    fn empty_range_runs_zero() {
        let nest = parse("array A[10]\nfor i = 5 to 4 { A[i]; }").unwrap();
        assert_eq!(count_iterations(&nest), 0);
    }

    #[test]
    fn matches_iteration_count_accessor() {
        let nest =
            parse("array A[100]\nfor i = 1 to 10 { for j = 1 to 20 { for k = 1 to 3 { A[i]; } } }")
                .unwrap();
        assert_eq!(Some(count_iterations(&nest) as i64), nest.iteration_count());
    }
}
