//! Seeded differential fuzzing of the sanitizer: over hundreds of random
//! small nests, the §3 closed-form estimators, the analytic MWS bounds,
//! and the dense simulator must never disagree — zero `LM9xxx`
//! diagnostics. A disagreement here is an estimator bug, not a property of
//! the input. The same nests, plus the kernel, robustness and golden
//! corpora, also pin that the analyzer's classification, the estimates
//! and the symbolic formulas report one case analysis.

use loopmem_analyze::{check_source, CheckOptions};
use loopmem_core::{classify_formulas, distinct_formulas, estimate_distinct, Method};
use loopmem_ir::parse_program;
use loopmem_linalg::Lcg;
use std::fmt::Write as _;
use std::path::Path;

const CASES: usize = 220;

/// Emits a random-but-parseable `.loop` source: depth 1–3, extents ≤ 9,
/// coefficients in −2..=2, offsets in 0..=6 — comfortably inside the
/// simulation oracle's iteration budget.
fn random_source(rng: &mut Lcg) -> String {
    let depth = rng.range_usize(1, 3);
    let arrays = rng.range_usize(1, 2);
    let mut src = String::new();
    let mut dims = Vec::new();
    for a in 0..arrays {
        let d = rng.range_usize(1, depth.min(2));
        dims.push(d);
        let _ = write!(src, "array A{a}");
        for _ in 0..d {
            // Generous extents: most random subscripts stay in bounds, and
            // out-of-extent ones only add an LM0001 (which must not
            // perturb the sanitizer).
            let _ = write!(src, "[64]");
        }
        src.push('\n');
    }
    let mut header = String::new();
    for k in 0..depth {
        let lo = rng.range_i64(1, 3);
        let hi = lo + rng.range_i64(0, 6);
        let _ = write!(header, "for i{k} = {lo} to {hi} {{ ");
    }
    src.push_str(&header);
    let statements = rng.range_usize(1, 2);
    for _ in 0..statements {
        let refs = rng.range_usize(1, 3);
        let rendered: Vec<String> = (0..refs)
            .map(|_| {
                let a = rng.range_usize(0, arrays - 1);
                let mut r = format!("A{a}");
                for _ in 0..dims[a] {
                    let mut sub = format!("{}", rng.range_i64(0, 6));
                    for k in 0..depth {
                        let c = rng.range_i64(-2, 2);
                        if c != 0 {
                            let sign = if c < 0 { '-' } else { '+' };
                            let _ = write!(sub, " {sign} {}i{k}", c.abs());
                        }
                    }
                    let _ = write!(r, "[{sub}]");
                }
                r
            })
            .collect();
        match rendered.split_first() {
            Some((lhs, reads)) if !reads.is_empty() => {
                let _ = write!(src, "{lhs} = {}; ", reads.join(" + "));
            }
            _ => {
                let _ = write!(src, "{}; ", rendered[0]);
            }
        }
    }
    for _ in 0..depth {
        src.push_str("} ");
    }
    src.push('\n');
    src
}

#[test]
fn sanitizer_never_disagrees_on_random_nests() {
    let mut rng = Lcg::new(0x0100_5ea1_d1ff);
    let opts = CheckOptions {
        sanitize: true,
        ..CheckOptions::default()
    };
    let mut sanitized = 0usize;
    for case in 0..CASES {
        let src = random_source(&mut rng);
        let report = check_source(&src, &opts)
            .unwrap_or_else(|e| panic!("case {case} should parse:\n{src}\n{e}"));
        let disagreements: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code.starts_with("LM9"))
            .collect();
        assert!(
            disagreements.is_empty(),
            "case {case} found estimator/simulator disagreement:\n{src}\n{disagreements:#?}"
        );
        sanitized += 1;
    }
    assert_eq!(sanitized, CASES);
}

/// The classification, the numeric estimates and the symbolic formulas
/// read one case analysis, so they agree on every array of the kernels,
/// the robustness and golden corpora, and the seeded nests: the
/// classified method is the estimate's (absent means none), and a formula
/// exists exactly for the §3.1 and §3.2 forms.
#[test]
fn classification_estimates_and_formulas_agree() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut sources = Vec::new();
    for dir in ["kernels", "tests/robustness", "crates/analyze/tests/golden"] {
        for entry in std::fs::read_dir(root.join(dir)).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|x| x == "loop") {
                sources.push(std::fs::read_to_string(path).unwrap());
            }
        }
    }
    assert!(sources.len() >= 25, "corpus went missing");
    let mut rng = Lcg::new(0x0100_5ea1_d1ff);
    sources.extend((0..CASES).map(|_| random_source(&mut rng)));
    for src in &sources {
        // Inputs that do not parse or overflow i64 (LM0009) are out of scope.
        match check_source(src, &CheckOptions::default()) {
            Ok(r) if !r.diagnostics.iter().any(|d| d.code == "LM0009") => {}
            _ => continue,
        }
        for nest in parse_program(src).unwrap().nests() {
            let estimates = estimate_distinct(nest);
            let formulas = distinct_formulas(nest);
            let classes = classify_formulas(nest);
            for c in &classes {
                let method = estimates.get(&c.array).map(|e| e.method);
                let symbolic = matches!(
                    method,
                    Some(Method::FullRankFormula | Method::NullspaceFormula)
                );
                assert_eq!(c.method, method, "{src}");
                assert_eq!(formulas.contains_key(&c.array), symbolic, "{src}");
            }
            let classified = classes.iter().filter(|c| c.method.is_some()).count();
            assert_eq!(estimates.len(), classified, "{src}");
        }
    }
}
