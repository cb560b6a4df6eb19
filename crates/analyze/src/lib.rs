#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! `loopmem-analyze` — span-aware static diagnostics over the `.loop` IR.
//!
//! The paper's whole point is deciding memory budgets *before* running the
//! code; this crate is the front door that decides, before any simulation,
//! what kind of nest we are looking at. A multi-pass static analyzer
//! classifies each nest — which §3 closed form applies, whether any
//! tileable transformation can exist (§4), whether subscripts stay inside
//! declared extents — and predicts, via i128 interval arithmetic, exactly
//! the failures the governed engine (PR 3's degradation ladder) would
//! otherwise discover dynamically.
//!
//! # Lints
//!
//! | code | severity | meaning | paper |
//! |------|----------|---------|-------|
//! | `LM0001` | error | subscript can leave the declared extents | §2 |
//! | `LM0002` | hint | rank-deficient access matrix; names the null-space (reuse) vector | §3.2 |
//! | `LM0003` | warning | non-uniformly generated references; bounds-only estimate | §3.2, Ex. 6 |
//! | `LM0004` | warning | dependence cone admits no full-rank tileable transform | §4.2 |
//! | `LM0005` | warning | loop-invariant reference (constant subscripts) | §2.3 |
//! | `LM0006` | warning | zero-trip loop: the nest never executes | — |
//! | `LM0007` | warning | array declared but never referenced | — |
//! | `LM0008` | warning | duplicate reference within one statement | — |
//! | `LM0009` | error | bound/subscript arithmetic will overflow i64 in simulation | — |
//! | `LM0010` | warning | iteration volume exceeds the analysis budget | — |
//! | `LM0011` | warning | dead store: array written but never read afterwards | — |
//! | `LM9001`–`LM9003` | error | differential sanitizer disagreements (`--sanitize`) | §3 |
//!
//! Certificate violations (`LM7001`–`LM7008`) are reported by the
//! independent checker in `loopmem-verify` and rendered by the CLI with
//! this crate's diagnostic machinery.
//!
//! # Quickstart
//!
//! ```
//! use loopmem_analyze::{check_source, CheckOptions};
//!
//! let report = check_source(
//!     "array X[200]\nfor i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1]; } }",
//!     &CheckOptions::default(),
//! ).unwrap();
//! // Example 8's access matrix is rank-deficient: a hint names the
//! // null-space vector (5, -2).
//! assert_eq!(report.diagnostics[0].code, "LM0002");
//! assert!(report.diagnostics[0].notes[0].contains("(5, -2)"));
//! ```
//!
//! The pass is **total** on untrusted input (no panics, saturating
//! arithmetic, cost-gated dependence queries) and **deterministic**: the
//! same source always produces byte-identical reports.

pub mod diag;
pub mod lints;
pub mod sanitize;

pub use diag::{Diagnostic, Report, Severity};
pub use lints::{dead_store_diagnostics, lint_nest, unused_array_diagnostics};
/// Re-export of the shared JSON module (moved to `loopmem-ir` so the
/// certificate checker can use it without depending on this crate).
pub use loopmem_ir::json;
pub use loopmem_ir::{escape_json, parse_json, Json};
pub use sanitize::sanitize_nest;

use loopmem_ir::{parse_program_spanned, LoopNest, NestSpans, ParseError};

/// Tuning knobs for [`check_source`] / [`check_nest`].
#[derive(Clone, Debug)]
pub struct CheckOptions {
    /// Run the differential sanitizer (`LM9xxx`) on nests small enough to
    /// simulate exactly.
    pub sanitize: bool,
    /// Iteration-volume threshold for `LM0010`. Defaults to `u32::MAX`:
    /// the dense engine stamps time in `u32`, so anything larger cannot
    /// simulate exactly even with an unlimited budget.
    pub max_volume: u64,
    /// Largest estimated iteration count the sanitizer's simulation oracle
    /// will attempt.
    pub oracle_max_iters: u64,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            sanitize: false,
            max_volume: u64::from(u32::MAX),
            oracle_max_iters: 200_000,
        }
    }
}

/// Checks one nest that was parsed with [`loopmem_ir::parse_spanned`]:
/// all per-nest lints, per-nest unused arrays, and (when enabled and no
/// overflow is predicted) the differential sanitizer.
pub fn check_nest(nest: &LoopNest, spans: &NestSpans, opts: &CheckOptions) -> Report {
    let mut diagnostics = lint_nest(nest, spans, opts);
    diagnostics.extend(unused_array_diagnostics(&[nest], spans));
    diagnostics.extend(lints::dead_store_diagnostics(
        &[nest],
        std::slice::from_ref(spans),
    ));
    if opts.sanitize && !diagnostics.iter().any(|d| d.code == "LM0009") {
        diagnostics.extend(sanitize_nest(nest, spans, opts));
    }
    for d in &mut diagnostics {
        d.nest = Some(0);
    }
    sort_diagnostics(&mut diagnostics);
    Report { diagnostics }
}

/// Parses `src` as a program (one or more nests over shared declarations)
/// and checks every nest. Unused-array analysis is program-wide: an array
/// only written in nest 0 and read in nest 2 is used.
///
/// # Errors
///
/// Returns the (span-carrying) [`ParseError`] when `src` does not parse;
/// render it with [`ParseError::render`] for a caret snippet.
pub fn check_source(src: &str, opts: &CheckOptions) -> Result<Report, ParseError> {
    let (program, all_spans) = parse_program_spanned(src)?;
    let mut diagnostics = Vec::new();
    for (k, (nest, spans)) in program.nests().iter().zip(&all_spans).enumerate() {
        let mut ds = lint_nest(nest, spans, opts);
        if opts.sanitize && !ds.iter().any(|d| d.code == "LM0009") {
            ds.extend(sanitize_nest(nest, spans, opts));
        }
        for d in &mut ds {
            d.nest = Some(k);
        }
        diagnostics.extend(ds);
    }
    if let Some(decl_spans) = all_spans.first() {
        let nests: Vec<&LoopNest> = program.nests().iter().collect();
        diagnostics.extend(unused_array_diagnostics(&nests, decl_spans));
        diagnostics.extend(lints::dead_store_diagnostics(&nests, &all_spans));
    }
    sort_diagnostics(&mut diagnostics);
    Ok(Report { diagnostics })
}

/// Deterministic rendering order: by source position, then span end, then
/// code, then nest index.
fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.span.start, a.span.end, a.code, a.nest).cmp(&(b.span.start, b.span.end, b.code, b.nest))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str, opts: &CheckOptions) -> Vec<&'static str> {
        check_source(src, opts)
            .unwrap()
            .diagnostics
            .iter()
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn clean_nest_produces_no_diagnostics() {
        let src = "array A[32][32]\nfor i = 2 to 31 { for j = 2 to 31 {\n\
                   A[i][j] = 0.2 * (A[i][j] + A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1]);\n} }";
        assert_eq!(codes(src, &CheckOptions::default()), Vec::<&str>::new());
    }

    #[test]
    fn out_of_extent_subscript_is_an_error() {
        let src = "array A[10]\nfor i = 1 to 11 { A[i]; }";
        let r = check_source(src, &CheckOptions::default()).unwrap();
        assert!(r.diagnostics.iter().any(|d| d.code == "LM0001"));
        assert!(r.has_errors());
    }

    #[test]
    fn overflow_prediction_suppresses_extent_lint() {
        let src = "array X[10]\nfor i = 1 to 5 { X[4000000000000000000i]; }";
        let got = codes(src, &CheckOptions::default());
        assert!(got.contains(&"LM0009"), "{got:?}");
        assert!(!got.contains(&"LM0001"), "{got:?}");
    }

    #[test]
    fn zero_trip_and_volume_lints() {
        let empty = "array X[10]\nfor i = 5 to 4 { for j = 1 to 1000000 { X[1]; } }";
        let got = codes(empty, &CheckOptions::default());
        assert!(got.contains(&"LM0006"), "{got:?}");
        assert!(got.contains(&"LM0005"), "{got:?}");
        assert!(
            !got.contains(&"LM0010"),
            "empty nests have volume 0: {got:?}"
        );

        let huge = "array X[2000001]\n\
                    for i = 1 to 1000000 { for j = 1 to 1000000 { X[i + j] = X[i + j - 1]; } }";
        assert!(codes(huge, &CheckOptions::default()).contains(&"LM0010"));
    }

    #[test]
    fn unused_array_is_program_wide() {
        // B is only used by the second nest: not unused.
        let src = "array A[8]\narray B[8]\narray Z[8]\n\
                   for i = 1 to 8 { A[i]; }\n\
                   for i = 1 to 8 { B[i]; }";
        let r = check_source(src, &CheckOptions::default()).unwrap();
        let unused: Vec<&Diagnostic> = r
            .diagnostics
            .iter()
            .filter(|d| d.code == "LM0007")
            .collect();
        assert_eq!(unused.len(), 1);
        assert!(unused[0].message.contains("'Z'"));
        assert_eq!(unused[0].nest, None);
    }

    #[test]
    fn dead_store_is_suffix_sensitive() {
        // A is written by nest 0 and read by nest 1: alive. C is written
        // by nest 1 and read by nothing afterwards: dead. B is read-only:
        // never a store at all.
        let src = "array A[8]\narray B[8]\narray C[8]\n\
                   for i = 1 to 8 { A[i] = B[i]; }\n\
                   for i = 1 to 8 { C[i] = A[i]; }";
        let r = check_source(src, &CheckOptions::default()).unwrap();
        let dead: Vec<&Diagnostic> = r
            .diagnostics
            .iter()
            .filter(|d| d.code == "LM0011")
            .collect();
        assert_eq!(dead.len(), 1, "{:?}", r.diagnostics);
        assert!(dead[0].message.contains("'C'"));
        assert_eq!(dead[0].nest, Some(1));

        // A same-nest read suppresses the lint (accumulations are alive).
        let acc = "array C[8]\nfor i = 1 to 8 { C[i] = C[i] + 1; }";
        let r = check_source(acc, &CheckOptions::default()).unwrap();
        assert!(
            !r.diagnostics.iter().any(|d| d.code == "LM0011"),
            "{:?}",
            r.diagnostics
        );

        // A *later* write does not resurrect an earlier dead store.
        let twice = "array C[8]\narray B[8]\n\
                     for i = 1 to 8 { C[i] = B[i]; }\n\
                     for i = 1 to 8 { C[i] = B[i] + B[i]; }";
        let r = check_source(twice, &CheckOptions::default()).unwrap();
        let dead: Vec<usize> = r
            .diagnostics
            .iter()
            .filter(|d| d.code == "LM0011")
            .map(|d| d.nest.unwrap())
            .collect();
        assert_eq!(dead, vec![0, 1], "{:?}", r.diagnostics);
    }

    #[test]
    fn sanitizer_is_quiet_on_paper_examples() {
        let opts = CheckOptions {
            sanitize: true,
            ..CheckOptions::default()
        };
        for src in [
            "array A[30][30]\nfor i = 1 to 25 { for j = 1 to 20 { A[i][j] = A[i-1][j+2]; } }",
            "array A[111]\nfor i = 1 to 20 { for j = 1 to 10 { A[2i + 5j + 1]; } }",
            "array A[200]\nfor i = 1 to 20 { for j = 1 to 20 { A[3i + 7j - 10] = A[4i - 3j + 60]; } }",
            "array X[200]\nfor i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
        ] {
            let got = codes(src, &opts);
            assert!(
                !got.iter().any(|c| c.starts_with("LM9")),
                "sanitizer fired on {src}: {got:?}"
            );
        }
    }

    #[test]
    fn diagnostics_are_sorted_and_deterministic() {
        let src = "array X[10]\narray U[5]\nfor i = 5 to 4 { for j = 1 to 10 { X[1]; } }";
        let a = check_source(src, &CheckOptions::default()).unwrap();
        let b = check_source(src, &CheckOptions::default()).unwrap();
        assert_eq!(a.diagnostics, b.diagnostics);
        let starts: Vec<usize> = a.diagnostics.iter().map(|d| d.span.start).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
    }
}
