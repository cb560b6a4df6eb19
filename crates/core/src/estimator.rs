//! One-call memory analysis: the numbers behind Figure 2's columns.

use crate::distinct::{estimate_distinct, DistinctEstimate};
use crate::Session;
use loopmem_ir::{AnalysisError, ArrayId, LoopNest};
use std::collections::HashMap;

/// Memory-requirement analysis of one nest.
#[derive(Clone, Debug)]
pub struct MemoryAnalysis {
    /// Declared elements over all arrays — Figure 2's *default* column.
    pub default_words: i64,
    /// Estimated distinct accesses per array (§3 formulas or bounds).
    pub distinct: HashMap<ArrayId, DistinctEstimate>,
    /// Exact per-array MWS from the simulator.
    pub mws_per_array: HashMap<ArrayId, u64>,
    /// Exact total MWS (peak of summed windows) — the minimum buffer that
    /// captures all reuse.
    pub mws_exact: u64,
    /// Exact distinct accesses summed over arrays (simulator ground truth).
    pub distinct_exact_total: u64,
}

impl MemoryAnalysis {
    /// Percentage reduction of `value` relative to the declared size
    /// (Figure 2's parenthesized numbers).
    pub fn reduction_percent(&self, value: u64) -> f64 {
        if self.default_words <= 0 {
            return 0.0;
        }
        100.0 * (1.0 - value as f64 / self.default_words as f64)
    }

    /// Summed estimated distinct accesses (upper bounds when inexact).
    pub fn distinct_estimate_total(&self) -> i64 {
        self.distinct.values().map(|e| e.upper).sum()
    }
}

/// Runs both the closed-form estimators and the exact simulator (a
/// default [`Session`]) on a nest; fails with the simulation's typed
/// error (subscript overflow, a contained panic).
///
/// ```
/// let nest = loopmem_ir::parse(r#"
///     array A[111]
///     for i = 1 to 20 { for j = 1 to 10 { A[2i + 5j + 1]; } }
/// "#).unwrap();
/// let m = loopmem_core::analyze_memory(&nest).unwrap();
/// assert_eq!(m.default_words, 111);
/// assert_eq!(m.distinct_exact_total, 80);
/// assert_eq!(m.distinct[&loopmem_ir::ArrayId(0)].value(), Some(80));
/// ```
pub fn analyze_memory(nest: &LoopNest) -> Result<MemoryAnalysis, AnalysisError> {
    let distinct = estimate_distinct(nest);
    let sim = Session::new().simulate(nest)?;
    Ok(MemoryAnalysis {
        default_words: nest.default_memory(),
        distinct,
        mws_per_array: sim.per_array.iter().map(|(&id, s)| (id, s.mws)).collect(),
        mws_exact: sim.mws_total,
        distinct_exact_total: sim.distinct_total(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopmem_ir::parse;

    #[test]
    fn estimates_match_simulator_when_exact() {
        // Every §3 "exact" case must agree with the trace.
        for src in [
            "array A[30][30]\nfor i = 1 to 25 { for j = 1 to 20 { A[i][j] = A[i-1][j+2]; } }",
            "array A[111]\nfor i = 1 to 20 { for j = 1 to 10 { A[2i + 5j + 1]; } }",
            "array A[61][51]\nfor i = 1 to 10 { for j = 1 to 20 { for k = 1 to 30 { A[3i + k][j + k]; } } }",
        ] {
            let nest = parse(src).unwrap();
            let m = analyze_memory(&nest).unwrap();
            for (id, est) in &m.distinct {
                if let Some(v) = est.value() {
                    let exact = loopmem_poly::count::distinct_accesses_for(&nest, *id) as i64;
                    if est.method != crate::distinct::Method::FullRankFormula
                        || nest.refs().count() <= 2
                    {
                        assert_eq!(v, exact, "estimate vs trace for {src}");
                    }
                }
            }
            assert!(m.mws_exact <= m.distinct_exact_total);
        }
    }

    #[test]
    fn bounds_bracket_truth() {
        let nest = parse(
            "array A[200]\n\
             for i = 1 to 20 { for j = 1 to 20 { A[3i + 7j - 10] = A[4i - 3j + 60]; } }",
        )
        .unwrap();
        let m = analyze_memory(&nest).unwrap();
        let e = m.distinct[&ArrayId(0)];
        let exact = m.distinct_exact_total as i64;
        assert!(e.lower <= exact && exact <= e.upper);
    }

    #[test]
    fn reduction_percent_math() {
        let nest = parse("array A[1000]\nfor i = 1 to 10 { A[i]; }").unwrap();
        let m = analyze_memory(&nest).unwrap();
        assert_eq!(m.default_words, 1000);
        assert!((m.reduction_percent(100) - 90.0).abs() < 1e-9);
        assert!((m.reduction_percent(1000) - 0.0).abs() < 1e-9);
    }
}
