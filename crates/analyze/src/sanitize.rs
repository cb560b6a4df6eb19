//! The differential estimator sanitizer (`LM9xxx`).
//!
//! For nests small enough to simulate exactly, the §3 closed-form distinct
//! counts and the analytic MWS bounds from `loopmem-core` are cross-checked
//! against the dense simulator — the estimator stack becomes its own test
//! oracle. Any disagreement is an internal-consistency **Error**: either a
//! closed form, its case analysis, or the simulator is wrong. Arrays no
//! closed form covers have no estimate to check.
//!
//! What is checked, per array:
//!
//! * `LM9001` — an estimate claiming exactness (`lower == upper`) differs
//!   from the simulated distinct count. The one *known* approximation —
//!   the paper's §3.1 multi-reference formula with more than two
//!   references, which over-counts overlap (its Example 3 reports 139
//!   where the true union is 121) — is skipped, because
//!   [`loopmem_core::estimate_distinct_exact`] only replaces it when the
//!   inclusion–exclusion union is available
//!   ([`loopmem_core::ArrayClassification::closed_form_is_exact`] states
//!   the rule).
//! * `LM9003` — a bounds-only estimate (Example-6 non-uniform ranges)
//!   whose interval does not contain the simulated count.
//!
//! And per nest:
//!
//! * `LM9002` — the analytic MWS upper bound
//!   ([`loopmem_core::analytic_mws_bounds`]) is *below* the simulated
//!   exact MWS: a supposedly guaranteed bound was violated.

use crate::diag::{Diagnostic, Severity};
use crate::lints::first_ref_span;
use crate::CheckOptions;
use loopmem_core::{analytic_mws_bounds, classify_formulas, estimate_distinct_exact, Method};
use loopmem_ir::{LoopNest, NestSpans};
use loopmem_sim::oracle_simulate;

fn method_name(m: Method) -> &'static str {
    match m {
        Method::FullRankFormula => "§3.1 full-rank formula",
        Method::NullspaceFormula => "§3.2 null-space formula",
        Method::SeparableProduct => "separable product",
        Method::InclusionExclusion => "inclusion-exclusion union",
        Method::NonUniformBounds => "§3.2 non-uniform bounds",
        Method::Enumerated => "simulation",
    }
}

/// Cross-checks estimators against the dense simulator for one nest,
/// empty nests included. Returns no diagnostics when the nest is too
/// large for the oracle (that is "no oracle", not "consistent").
pub fn sanitize_nest(nest: &LoopNest, spans: &NestSpans, opts: &CheckOptions) -> Vec<Diagnostic> {
    let Some(sim) = oracle_simulate(nest, opts.oracle_max_iters) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let approximate: Vec<_> = classify_formulas(nest)
        .into_iter()
        .filter(|c| c.method == Some(Method::FullRankFormula) && !c.closed_form_is_exact())
        .map(|c| c.array)
        .collect();
    for (array, est) in estimate_distinct_exact(nest) {
        let observed = sim.per_array.get(&array).map_or(0, |s| s.distinct) as i64;
        let name = &nest.array(array).name;
        if est.is_exact() {
            if est.method == Method::FullRankFormula && approximate.contains(&array) {
                // The documented §3.1 r>2 over-count; not a disagreement.
                continue;
            }
            if est.value() != Some(observed) {
                out.push(Diagnostic {
                    code: "LM9001",
                    severity: Severity::Error,
                    message: format!(
                        "estimator disagreement on '{name}': {} predicts {} distinct \
                         elements, simulation observed {observed}",
                        method_name(est.method),
                        est.lower
                    ),
                    notes: vec![
                        "an exact closed form and the dense simulator cannot both be \
                         right; this is an internal consistency bug"
                            .into(),
                    ],
                    span: first_ref_span(nest, spans, array),
                    nest: None,
                });
            }
        } else if observed < est.lower || observed > est.upper {
            out.push(Diagnostic {
                code: "LM9003",
                severity: Severity::Error,
                message: format!(
                    "bounds violation on '{name}': {} predicts [{}, {}], simulation \
                     observed {observed}",
                    method_name(est.method),
                    est.lower,
                    est.upper
                ),
                notes: vec![
                    "the Example-6 value-range bounds are guaranteed enclosures; an \
                     observation outside them is an internal consistency bug"
                        .into(),
                ],
                span: first_ref_span(nest, spans, array),
                nest: None,
            });
        }
    }
    let bounds = analytic_mws_bounds(nest);
    if sim.mws_total > bounds.upper {
        out.push(Diagnostic {
            code: "LM9002",
            severity: Severity::Error,
            message: format!(
                "analytic MWS upper bound ({}) is below the simulated exact MWS ({})",
                bounds.upper, sim.mws_total
            ),
            notes: vec![
                "the degradation ladder promises a guaranteed enclosure; budget-governed \
                 callers would have trusted a wrong bound"
                    .into(),
            ],
            span: spans.nest,
            nest: None,
        });
    }
    out
}
