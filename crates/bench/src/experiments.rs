//! One function per table/figure of the paper.
//!
//! Every function returns a structured result whose `Display` renders the
//! table the corresponding binary prints; EXPERIMENTS.md archives the
//! output next to the paper's numbers.

use crate::kernels::all_kernels;
use loopmem_core::{analyze_memory, two_level_objective, SearchMode, Session};
use loopmem_dep::analyze;
use loopmem_ir::{parse, AnalysisError, LoopNest};
use loopmem_linalg::IMat;
use std::fmt;

// ---------------------------------------------------------------- fig 2 --

/// One row of Figure 2.
#[derive(Clone, Debug)]
pub struct Fig2Row {
    /// Kernel name.
    pub name: &'static str,
    /// Declared memory (words).
    pub default_words: i64,
    /// Exact MWS before optimization.
    pub mws_unopt: u64,
    /// Exact MWS after the compound-transformation search.
    pub mws_opt: u64,
    /// The transformation the optimizer chose.
    pub transform: IMat,
}

impl Fig2Row {
    /// Percentage reduction of the unoptimized MWS vs. the default size.
    pub fn pct_unopt(&self) -> f64 {
        100.0 * (1.0 - self.mws_unopt as f64 / self.default_words as f64)
    }

    /// Percentage reduction of the optimized MWS vs. the default size.
    pub fn pct_opt(&self) -> f64 {
        100.0 * (1.0 - self.mws_opt as f64 / self.default_words as f64)
    }
}

/// Figure 2: per-kernel default size vs. MWS before/after optimization.
#[derive(Clone, Debug)]
pub struct Fig2 {
    /// One row per kernel, in the paper's order.
    pub rows: Vec<Fig2Row>,
}

impl Fig2 {
    /// Average reduction of the unoptimized column (paper: 81.9 %).
    pub fn avg_unopt(&self) -> f64 {
        self.rows.iter().map(Fig2Row::pct_unopt).sum::<f64>() / self.rows.len() as f64
    }

    /// Average reduction of the optimized column (paper: 92.3 %).
    pub fn avg_opt(&self) -> f64 {
        self.rows.iter().map(Fig2Row::pct_opt).sum::<f64>() / self.rows.len() as f64
    }
}

/// Runs the Figure 2 experiment on all seven kernels.
pub fn figure2() -> Fig2 {
    let rows = all_kernels()
        .into_iter()
        .map(|k| {
            let nest = k.nest();
            let opt = Session::new()
                .optimize(&nest)
                .unwrap_or_else(|e| panic!("{}: {e}", k.name));
            Fig2Row {
                name: k.name,
                default_words: nest.default_memory(),
                mws_unopt: opt.mws_before,
                mws_opt: opt.mws_after,
                transform: opt.transform,
            }
        })
        .collect();
    Fig2 { rows }
}

impl fmt::Display for Fig2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<12} {:>8} {:>10} {:>8} {:>10} {:>8}",
            "code", "default", "MWS_unopt", "(red.)", "MWS_opt", "(red.)"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<12} {:>8} {:>10} {:>7.1}% {:>10} {:>7.1}%",
                r.name,
                r.default_words,
                r.mws_unopt,
                r.pct_unopt(),
                r.mws_opt,
                r.pct_opt()
            )?;
        }
        writeln!(
            f,
            "{:<12} {:>8} {:>10} {:>7.1}% {:>10} {:>7.1}%",
            "average",
            "",
            "",
            self.avg_unopt(),
            "",
            self.avg_opt()
        )
    }
}

// ------------------------------------------------------- examples table --

/// One worked example of §2–§3 with the paper's number, our formula's
/// number, and the exact count.
#[derive(Clone, Debug)]
pub struct ExampleRow {
    /// Which example (paper numbering).
    pub example: &'static str,
    /// What is measured.
    pub quantity: &'static str,
    /// The paper's reported value.
    pub paper: i64,
    /// Our implementation of the paper's formula.
    pub formula: i64,
    /// Ground truth by enumeration/simulation.
    pub exact: i64,
}

/// §2.2–§3.2 worked examples (1a, 1b, 2, 3, 4, 5, 6).
pub fn examples_table() -> Vec<ExampleRow> {
    let mut rows = Vec::new();

    // Example 1(a)/(b): reuse volume of dependence (3,2) over 10x10.
    let reuse = loopmem_core::distinct::reuse_volume(&[10, 10], &[3, 2]);
    rows.push(ExampleRow {
        example: "1(a)/1(b)",
        quantity: "reuse of dep (3,2), 10x10",
        paper: 56,
        formula: reuse,
        exact: 56,
    });

    let table: [(&'static str, &'static str, i64, &'static str); 4] = [
        (
            "2",
            "A_d, A[i][j]=A[i-1][j+2], 10x10",
            128,
            "array A[12][12]\nfor i = 1 to 10 { for j = 1 to 10 { A[i][j] = A[i-1][j+2]; } }",
        ),
        (
            "3",
            "A_d, 4-ref stencil, 10x10",
            139,
            "array A[11][11]\nfor i = 1 to 10 { for j = 1 to 10 { A[i][j] = A[i-1][j] + A[i][j-1] + A[i-1][j-1]; } }",
        ),
        (
            "4",
            "A_d, A[2i+5j+1], 20x10",
            80,
            "array A[111]\nfor i = 1 to 20 { for j = 1 to 10 { A[2i + 5j + 1]; } }",
        ),
        (
            "5",
            "A_d, A[3i+k][j+k], 10x20x30",
            1869,
            "array A[61][51]\nfor i = 1 to 10 { for j = 1 to 20 { for k = 1 to 30 { A[3i + k][j + k]; } } }",
        ),
    ];
    for (example, quantity, paper, src) in table {
        let nest = parse(src).expect("example sources parse");
        let est = loopmem_core::estimate_distinct(&nest);
        let id = loopmem_ir::ArrayId(0);
        let formula = est[&id].upper;
        let exact = loopmem_poly::count::distinct_accesses_for(&nest, id) as i64;
        rows.push(ExampleRow {
            example,
            quantity,
            paper,
            formula,
            exact,
        });
    }

    // Example 6: bounds for non-uniformly generated references.
    let nest = parse(
        "array A[200]\nfor i = 1 to 20 { for j = 1 to 20 { A[3i + 7j - 10] = A[4i - 3j + 60]; } }",
    )
    .expect("example 6 parses");
    let id = loopmem_ir::ArrayId(0);
    let est = loopmem_core::estimate_distinct(&nest)[&id];
    let exact = loopmem_poly::count::distinct_accesses_for(&nest, id) as i64;
    rows.push(ExampleRow {
        example: "6 (lower bound)",
        quantity: "LB, non-uniform pair, 20x20",
        paper: 179,
        formula: est.lower,
        exact,
    });
    rows.push(ExampleRow {
        example: "6 (upper bound)",
        quantity: "UB, non-uniform pair, 20x20",
        paper: 191,
        formula: est.upper,
        exact,
    });
    rows
}

/// Renders the examples table.
pub fn format_examples(rows: &[ExampleRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:<34} {:>7} {:>8} {:>7}",
        "example", "quantity", "paper", "formula", "exact"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<16} {:<34} {:>7} {:>8} {:>7}",
            r.example, r.quantity, r.paper, r.formula, r.exact
        );
    }
    out
}

// ------------------------------------------------------------- example 7 --

/// One transformation of the Example 7 comparison.
#[derive(Clone, Debug)]
pub struct Ex7Row {
    /// Label.
    pub label: &'static str,
    /// Transformation applied.
    pub transform: IMat,
    /// Closed-form estimate (eq. 2).
    pub estimate: i64,
    /// Exact MWS from the simulator.
    pub exact: u64,
    /// Cost reported by the paper (Eisenbeis et al. window metric).
    pub paper_cost: i64,
}

/// Example 7: `X[2i−3j]` over 20×30 under interchange, reversal, both,
/// and the compound transformation (paper costs 89/41/86/36 → 1).
pub fn example7_comparison() -> Vec<Ex7Row> {
    let nest = parse("array X[100]\nfor i = 1 to 20 { for j = 1 to 30 { X[2i - 3j]; } }").unwrap();
    let alpha = (2i64, -3i64);
    let n = (20i64, 30i64);
    let cases: [(&'static str, Vec<Vec<i64>>, i64); 5] = [
        ("original", vec![vec![1, 0], vec![0, 1]], 89),
        ("interchange", vec![vec![0, 1], vec![1, 0]], 41),
        ("reversal", vec![vec![1, 0], vec![0, -1]], 86),
        ("interchange+reversal", vec![vec![0, -1], vec![1, 0]], 36),
        ("compound (ours)", vec![vec![2, -3], vec![1, -1]], 1),
    ];
    cases
        .into_iter()
        .map(|(label, rows, paper_cost)| {
            let t = IMat::from_rows(&rows);
            let estimate = loopmem_core::two_level_estimate(alpha, (t[(0, 0)], t[(0, 1)]), n);
            let out = loopmem_core::apply_transform(&nest, &t).expect("unimodular");
            let exact = Session::new().simulate(&out).expect("simulates").mws_total;
            Ex7Row {
                label,
                transform: t,
                estimate,
                exact,
                paper_cost,
            }
        })
        .collect()
}

/// Renders the Example 7 table.
pub fn format_ex7(rows: &[Ex7Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} {:>10} {:>7} {:>12}",
        "transformation", "estimate", "exact", "paper cost"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<22} {:>10} {:>7} {:>12}",
            r.label, r.estimate, r.exact, r.paper_cost
        );
    }
    out
}

// ------------------------------------------------------------- example 8 --

/// The §4/§4.2 Example 8 study.
#[derive(Clone, Debug)]
pub struct Ex8Study {
    /// Dependence distances found (paper: (3,−2), (2,0), (5,−2)).
    pub distances: Vec<Vec<i64>>,
    /// Branch-and-bound objective value at the optimum (paper: 22).
    pub objective_at_optimum: loopmem_linalg::Rational,
    /// Exact MWS of the original loop (formula estimates 50).
    pub mws_before: u64,
    /// Exact MWS after the compound search (paper: 21).
    pub mws_after: u64,
    /// The chosen transformation.
    pub transform: IMat,
    /// The Li–Pingali baseline's outcome (paper: no legal completion).
    pub li_pingali: Result<u64, AnalysisError>,
    /// The interchange/reversal baseline's best MWS (paper: unchanged).
    pub interchange_reversal: u64,
}

/// Runs the Example 8 / §4.2 study.
pub fn example8_study() -> Ex8Study {
    let nest = parse(
        "array X[200]\nfor i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
    )
    .unwrap();
    let deps = analyze(&nest);
    let opt = Session::new()
        .optimize(&nest)
        .expect("compound search succeeds");
    let li = Session::new()
        .search_mode(SearchMode::LiPingali)
        .optimize(&nest)
        .map(|o| o.mws_after);
    let ir = Session::new()
        .search_mode(SearchMode::InterchangeReversal)
        .optimize(&nest)
        .expect("identity is always available");
    Ex8Study {
        distances: deps.distances(true),
        objective_at_optimum: two_level_objective((2, 5), (2, 3), (25, 10)),
        mws_before: opt.mws_before,
        mws_after: opt.mws_after,
        transform: opt.transform,
        li_pingali: li,
        interchange_reversal: ir.mws_after,
    }
}

impl fmt::Display for Ex8Study {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "distances (legality-constraining): {:?}", self.distances)?;
        writeln!(
            f,
            "branch-and-bound objective at (a,b) = (2,3): {} (paper: 22)",
            self.objective_at_optimum
        )?;
        writeln!(
            f,
            "MWS original: {} exact (formula 50); after compound: {} (paper: 21)",
            self.mws_before, self.mws_after
        )?;
        writeln!(f, "chosen T:\n{}", self.transform)?;
        match &self.li_pingali {
            Ok(m) => writeln!(f, "Li-Pingali: reaches {m} (paper expected failure!)")?,
            Err(AnalysisError::Invalid { message }) => {
                writeln!(f, "Li-Pingali: {message} (matches the paper)")?
            }
            Err(e) => writeln!(f, "Li-Pingali: {e}")?,
        }
        writeln!(
            f,
            "interchange+reversal best: {} (paper: cannot improve)",
            self.interchange_reversal
        )
    }
}

// ------------------------------------------------------------ example 10 --

/// The §4.3 Example 10 study: 3-deep nest, window collapse.
#[derive(Clone, Debug)]
pub struct Ex10Study {
    /// Reuse vector of the access matrix (paper: (1,3,3) in magnitude).
    pub reuse_vector: Vec<i64>,
    /// §4.3 closed-form MWS of the original order (paper: 540).
    pub estimate: i64,
    /// Exact MWS of the original order.
    pub exact_before: u64,
    /// Exact MWS after the access-matrix transformation (paper: 1).
    pub exact_after: u64,
    /// The transformation used.
    pub transform: IMat,
}

/// Runs the Example 10 study.
pub fn example10_study() -> Ex10Study {
    let nest = parse(
        "array A[61][51]\n\
         for i = 1 to 10 { for j = 1 to 20 { for k = 1 to 30 { A[3i + k][j + k]; } } }",
    )
    .unwrap();
    let reuse = loopmem_dep::reuse_vectors(&nest)[0].1.clone();
    let estimate = loopmem_core::three_level_estimate((reuse[0], reuse[1], reuse[2]), (10, 20, 30));
    let exact_before = Session::new().simulate(&nest).expect("simulates").mws_total;
    let opt = Session::new().optimize(&nest).expect("search succeeds");
    Ex10Study {
        reuse_vector: reuse,
        estimate,
        exact_before,
        exact_after: opt.mws_after,
        transform: opt.transform,
    }
}

impl fmt::Display for Ex10Study {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "reuse vector: {:?} (paper magnitude: (1,3,3))",
            self.reuse_vector
        )?;
        writeln!(
            f,
            "MWS estimate (§4.3 formula): {} (paper: 540)",
            self.estimate
        )?;
        writeln!(f, "MWS exact before: {}", self.exact_before)?;
        writeln!(f, "MWS exact after: {} (paper: 1)", self.exact_after)?;
        writeln!(f, "transformation:\n{}", self.transform)
    }
}

// --------------------------------------------------------------- accuracy --

/// Accuracy of the distinct-access estimators on one kernel (§5's claim:
/// exact everywhere except `rasta_flt`).
#[derive(Clone, Debug)]
pub struct AccuracyRow {
    /// Kernel name.
    pub name: &'static str,
    /// Paper-faithful estimate (summed upper bounds).
    pub estimate: i64,
    /// Our improved estimate (inclusion–exclusion for full-rank
    /// multi-reference groups).
    pub estimate_exact: i64,
    /// Exact distinct accesses (simulator).
    pub exact: u64,
    /// `true` when every per-array estimate was a closed form (no
    /// enumeration fallback).
    pub all_closed_form: bool,
}

/// Runs the estimator-accuracy experiment over the seven kernels.
pub fn accuracy_table() -> Vec<AccuracyRow> {
    all_kernels()
        .into_iter()
        .map(|k| {
            let nest = k.nest();
            let m = analyze_memory(&nest).expect("kernel simulates");
            let improved: i64 = loopmem_core::estimate_distinct_exact(&nest)
                .values()
                .map(|e| e.upper)
                .sum();
            let all_closed_form = m
                .distinct
                .values()
                .all(|e| e.method != loopmem_core::Method::Enumerated);
            AccuracyRow {
                name: k.name,
                estimate: m.distinct_estimate_total(),
                estimate_exact: improved,
                exact: m.distinct_exact_total,
                all_closed_form,
            }
        })
        .collect()
}

/// Renders the accuracy table.
pub fn format_accuracy(rows: &[AccuracyRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>10} {:>8} {:>10} {:>12}",
        "code", "paper est", "improved", "err %", "exact", "closed form"
    );
    for r in rows {
        let err = if r.exact > 0 {
            100.0 * (r.estimate as f64 - r.exact as f64) / r.exact as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:<12} {:>10} {:>10} {:>7.1}% {:>10} {:>12}",
            r.name, r.estimate, r.estimate_exact, err, r.exact, r.all_closed_form
        );
    }
    out
}

// -------------------------------------------------------- capacity sweep --

/// Operational validation of the MWS: buffer-miss behaviour around the
/// window size, per kernel (an extension experiment; the paper argues the
/// window is the needed capacity, this measures it).
#[derive(Clone, Debug)]
pub struct CapacityRow {
    /// Kernel name.
    pub name: &'static str,
    /// Exact MWS (per the window tracker).
    pub mws: u64,
    /// Cold misses (= distinct elements).
    pub cold: u64,
    /// Smallest capacity with cold-misses-only under Belady-optimal
    /// replacement.
    pub perfect_opt: usize,
    /// Same under LRU.
    pub perfect_lru: usize,
    /// Misses at half the MWS under OPT (capacity starvation).
    pub misses_at_half_opt: u64,
}

/// Runs the capacity sweep on all kernels.
pub fn capacity_sweep() -> Vec<CapacityRow> {
    use loopmem_sim::{min_perfect_capacity, misses, Policy, Trace};
    all_kernels()
        .into_iter()
        .map(|k| {
            let nest = k.nest();
            let mws = Session::new().simulate(&nest).expect("simulates").mws_total;
            let t = Trace::from_nest(&nest);
            CapacityRow {
                name: k.name,
                mws,
                cold: t.distinct() as u64,
                perfect_opt: min_perfect_capacity(&t, Policy::Opt),
                perfect_lru: min_perfect_capacity(&t, Policy::Lru),
                misses_at_half_opt: misses(&t, (mws as usize / 2).max(1), Policy::Opt),
            }
        })
        .collect()
}

/// Renders the capacity-sweep table.
pub fn format_capacity(rows: &[CapacityRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>7} {:>7} {:>12} {:>12} {:>14}",
        "code", "MWS", "cold", "perfect(OPT)", "perfect(LRU)", "misses@MWS/2"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<12} {:>7} {:>7} {:>12} {:>12} {:>14}",
            r.name, r.mws, r.cold, r.perfect_opt, r.perfect_lru, r.misses_at_half_opt
        );
    }
    out
}

// ---------------------------------------------------------- layout study --

/// Line-granular effect of array storage order on one kernel (the §7
/// future-work extension, implemented).
#[derive(Clone, Debug)]
pub struct LayoutRow {
    /// Kernel name.
    pub name: &'static str,
    /// Line-window size, row-major arrays.
    pub mws_lines_rm: u64,
    /// Line-window size, column-major arrays.
    pub mws_lines_cm: u64,
    /// LRU misses with a line buffer of 1/4 the row-major line footprint,
    /// row-major.
    pub misses_rm: u64,
    /// Same capacity, column-major.
    pub misses_cm: u64,
}

/// Runs the layout study on all kernels with 8-word lines.
pub fn layout_study() -> Vec<LayoutRow> {
    use loopmem_sim::{line_analysis, misses, Layout, Policy};
    all_kernels()
        .into_iter()
        .map(|k| {
            let nest = k.nest();
            let narrays = nest.arrays().len();
            let rm = vec![Layout::RowMajor; narrays];
            let cm = vec![Layout::ColMajor; narrays];
            let (rm_stats, rm_trace) = line_analysis(&nest, &rm, 8);
            let (cm_stats, cm_trace) = line_analysis(&nest, &cm, 8);
            let capacity = (rm_stats.distinct_lines as usize / 4).max(2);
            LayoutRow {
                name: k.name,
                mws_lines_rm: rm_stats.mws_lines,
                mws_lines_cm: cm_stats.mws_lines,
                misses_rm: misses(&rm_trace, capacity, Policy::Lru),
                misses_cm: misses(&cm_trace, capacity, Policy::Lru),
            }
        })
        .collect()
}

/// Renders the layout table.
pub fn format_layout(rows: &[LayoutRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "code", "lineMWS(rm)", "lineMWS(cm)", "misses(rm)", "misses(cm)"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<12} {:>12} {:>12} {:>12} {:>12}",
            r.name, r.mws_lines_rm, r.mws_lines_cm, r.misses_rm, r.misses_cm
        );
    }
    out
}

// ---------------------------------------------------------------- fig 1 --

/// Figure 1: ASCII rendering of the reused region a dependence vector
/// induces on a 2-deep iteration space. An iteration is marked `#` when it
/// re-accesses an element some earlier iteration already touched (it is
/// the *sink* of a dependence); the `#` count is exactly the paper's
/// shaded-area reuse `Σ (N_k − |d_k|)`-product.
pub fn figure1(nest: &LoopNest) -> String {
    use std::fmt::Write as _;
    assert_eq!(nest.depth(), 2, "figure 1 is a 2-deep illustration");
    let ranges = nest.rectangular_ranges().expect("rectangular");
    let mut seen: std::collections::HashSet<(loopmem_ir::ArrayId, Vec<i64>)> =
        std::collections::HashSet::new();
    let mut marks = Vec::new();
    let mut reuse_count = 0u64;
    loopmem_sim::for_each_iteration(nest, |it| {
        let mut reuses = false;
        for r in nest.refs() {
            if !seen.insert((r.array, r.index_at(it))) {
                reuses = true;
                reuse_count += 1;
            }
        }
        marks.push(reuses);
    });
    let mut out = String::new();
    let width = (ranges[1].1 - ranges[1].0 + 1) as usize;
    for (idx, reused) in marks.iter().enumerate() {
        out.push(if *reused { '#' } else { '.' });
        if (idx + 1) % width == 0 {
            out.push('\n');
        }
    }
    let _ = writeln!(
        out,
        "reuse (accesses to already-touched elements): {} of {} accesses, {} distinct",
        reuse_count,
        marks.len() * nest.refs().count(),
        seen.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn examples_rows_match_paper() {
        for r in examples_table() {
            assert_eq!(r.formula, r.paper, "example {}: {}", r.example, r.quantity);
        }
    }

    #[test]
    fn example7_rows() {
        let rows = example7_comparison();
        assert_eq!(rows.len(), 5);
        // Compound transformation reaches 1 both estimated and exact.
        let last = rows.last().unwrap();
        assert_eq!(last.estimate, 1);
        assert_eq!(last.exact, 1);
        // Exact MWS never exceeds the eq.-2 estimate.
        for r in &rows {
            assert!(r.exact as i64 <= r.estimate, "{}", r.label);
        }
        // Same ordering as the paper's cost metric.
        assert!(rows[4].exact < rows[3].exact);
        assert!(rows[3].exact < rows[1].exact);
        assert!(rows[1].exact < rows[0].exact);
    }

    #[test]
    fn example8_matches_paper() {
        let s = example8_study();
        assert_eq!(s.mws_after, 21);
        assert_eq!(s.objective_at_optimum, loopmem_linalg::Rational::from(22));
        assert!(s.li_pingali.is_err());
        assert_eq!(s.interchange_reversal, s.mws_before);
    }

    #[test]
    fn example10_matches_paper() {
        let s = example10_study();
        assert_eq!(s.estimate, 540);
        assert_eq!(s.exact_after, 1);
        assert_eq!(
            s.reuse_vector.iter().map(|x| x.abs()).collect::<Vec<_>>(),
            vec![1, 3, 3]
        );
    }

    #[test]
    fn figure1_region_has_56_reuses() {
        // Example 1(b): A[2i+3j] over 10x10, dependence (3,-2):
        // reuse = (10-3)(10-2) = 56.
        let nest =
            parse("array A[70]\nfor i = 1 to 10 { for j = 1 to 10 { A[2i + 3j]; } }").unwrap();
        let art = figure1(&nest);
        assert!(
            art.contains("already-touched elements): 56 of 100 accesses, 44 distinct"),
            "{art}"
        );
    }
}
