//! Certificate emission: the bridge from the optimizer's answers to the
//! proof-carrying layer in `loopmem-verify`.
//!
//! Every function here converts a *result the user will act on* into the
//! evidence the independent checker replays: legality certificates carry
//! the full `T·δ` evaluation table, optimality certificates carry the
//! evaluated candidate frontier, sizing/fusion certificates carry the
//! arithmetic behind the scratchpad number, and degraded (`try_*`)
//! outcomes yield bounds certificates instead of silence. Emission lives
//! in `loopmem-core` on purpose — the checker in `loopmem-verify` never
//! imports this crate, so a bug here is caught rather than inherited
//! (DESIGN.md §14).

use crate::optimize::Optimization;
use crate::scratchpad::{GovernedScratchpad, ScratchpadPlan, ScratchpadSizing};
use loopmem_dep::{analyze, constraining_distances, is_tileable};
use loopmem_ir::{AnalysisError, Bounds, LoopNest};
use loopmem_linalg::IMat;
use loopmem_obs::{EventKind, Phase, TraceEvent, TraceSink};
use loopmem_verify::{
    BoundsCert, Certificate, DistanceImage, FrontierEntry, FusionCert, FusionStep, LegalityCert,
    OptimalityCert, SizingCert, SizingTerm,
};
use std::sync::Arc;

fn rows_of(t: &IMat) -> Vec<Vec<i64>> {
    t.rows_iter().map(<[i64]>::to_vec).collect()
}

/// Certificates for a successful
/// [`Session::optimize`](crate::Session::optimize) answer on `nest` (program position `nest_index`): one legality
/// certificate for the winner, one optimality certificate over the
/// evaluated frontier, and one exact bounds certificate pinning the
/// nest's MWS.
///
/// The identity row is appended to the frontier (at `mws_before`) if the
/// search did not record it, so the checker can always confirm
/// `mws_after <= mws_before`.
pub fn certify_optimization(
    nest_index: usize,
    nest: &LoopNest,
    opt: &Optimization,
) -> Vec<Certificate> {
    let deps = analyze(nest);
    let evaluations = constraining_distances(&deps)
        .into_iter()
        .map(|distance| {
            let image = opt.transform.mul_vec(&distance);
            DistanceImage { distance, image }
        })
        .collect();
    let legality = LegalityCert {
        nest: nest_index,
        transform: rows_of(&opt.transform),
        evaluations,
        tileable: is_tileable(&opt.transform, &deps),
    };
    let mut frontier: Vec<FrontierEntry> = opt
        .evaluated
        .iter()
        .map(|(t, mws)| FrontierEntry {
            transform: rows_of(t),
            mws: *mws,
        })
        .collect();
    let identity = rows_of(&IMat::identity(nest.depth()));
    if !frontier.iter().any(|f| f.transform == identity) {
        frontier.push(FrontierEntry {
            transform: identity,
            mws: opt.mws_before,
        });
    }
    let optimality = OptimalityCert {
        nest: nest_index,
        mws_before: opt.mws_before,
        mws_after: opt.mws_after,
        transform: rows_of(&opt.transform),
        frontier,
    };
    let exact = BoundsCert {
        nest: Some(nest_index),
        quantity: "nest-mws".into(),
        method: "exact".into(),
        lower: opt.mws_before,
        upper: opt.mws_before,
        reason: "exact simulation of the original nest".into(),
    };
    vec![
        Certificate::Legality(legality),
        Certificate::Optimality(optimality),
        Certificate::Bounds(exact),
    ]
}

/// Bounds certificate from interval `bounds` on `quantity`
/// (`"nest-mws"` or `"program-words"`).
pub fn certify_bounds(
    nest_index: Option<usize>,
    quantity: &str,
    bounds: &Bounds,
    reason: impl Into<String>,
) -> Certificate {
    Certificate::Bounds(BoundsCert {
        nest: nest_index,
        quantity: quantity.into(),
        method: bounds.method.to_string(),
        lower: bounds.lower,
        upper: bounds.upper,
        reason: reason.into(),
    })
}

/// Bounds certificate for a *degraded* single-nest outcome: the governed
/// ladder's salvaged interval when the error carries one, else the
/// analytic union-box enclosure of the nest — never silence.
pub fn certify_degraded(nest_index: usize, nest: &LoopNest, error: &AnalysisError) -> Certificate {
    let bounds = error
        .bounds()
        .unwrap_or_else(|| crate::distinct::analytic_mws_bounds(nest));
    certify_bounds(Some(nest_index), "nest-mws", &bounds, error.to_string())
}

/// Sizing certificate reproducing the `max_k(MWS_k + live_through_k)`
/// arithmetic of an exact scratchpad sizing.
pub fn certify_sizing(sizing: &ScratchpadSizing) -> Certificate {
    Certificate::Sizing(SizingCert {
        per_nest: sizing
            .per_nest
            .iter()
            .map(|t| SizingTerm {
                mws: t.mws,
                live_through: t.live_through,
            })
            .collect(),
        boundary_live: sizing.boundary_live.clone(),
        peak_nest: sizing.peak_nest,
        words: sizing.words,
    })
}

/// Fusion certificate for a completed fusion search: the strict-decrease
/// chain of accepted steps from the unfused to the fused sizing.
pub fn certify_fusion(plan: &ScratchpadPlan) -> Certificate {
    Certificate::Fusion(FusionCert {
        unfused: plan.unfused.words,
        fused: plan.fused.words,
        steps: plan
            .steps
            .iter()
            .map(|s| FusionStep {
                at: s.at,
                before: s.words_before,
                after: s.words_after,
            })
            .collect(),
    })
}

/// Certificates for a governed scratchpad outcome: a program-words bounds
/// certificate (a point interval when every nest simulated exactly, the
/// honest `PartialProgram` interval otherwise) plus a sizing certificate
/// when the sizing is exact.
pub fn certify_governed_scratchpad(governed: &GovernedScratchpad) -> Vec<Certificate> {
    let mut out = Vec::new();
    let reason = if governed.all_exact() {
        "every nest simulated exactly".to_string()
    } else {
        let failed: Vec<String> = governed
            .per_nest
            .iter()
            .enumerate()
            .filter_map(|(k, r)| r.as_ref().err().map(|e| format!("nest {k}: {e}")))
            .collect();
        failed.join("; ")
    };
    out.push(certify_bounds(
        None,
        "program-words",
        &governed.words,
        reason,
    ));
    if governed.all_exact() {
        out.push(certify_sizing(&governed.sizing));
    }
    out
}

/// Records one `certificate` event per element of `certs` into `sink`
/// (phase `verify`, `ord` = position in the slice), so traces account
/// for every certificate a run emitted without duplicating their
/// payloads. No-op when the sink is disabled.
pub fn trace_certificates(sink: &Arc<dyn TraceSink>, certs: &[Certificate]) {
    if !sink.enabled() {
        return;
    }
    sink.record_all(
        certs
            .iter()
            .enumerate()
            .map(|(i, c)| TraceEvent {
                phase: Phase::Verify,
                nest: None,
                ord: (i as u64, 0),
                kind: EventKind::Certificate { kind: c.kind() },
            })
            .collect(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;
    use loopmem_ir::{parse, parse_program};
    use loopmem_sim::AnalysisBudget;
    use loopmem_verify::check_certificates;

    fn example8() -> LoopNest {
        parse(
            "array X[200]\n\
             for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
        )
        .unwrap()
    }

    #[test]
    fn optimizer_answers_carry_valid_certificates() {
        let nest = example8();
        let opt = Session::new().optimize(&nest).unwrap();
        let certs = certify_optimization(0, &nest, &opt);
        assert_eq!(certs.len(), 3);
        let program = loopmem_ir::Program::new(vec![nest]).unwrap();
        assert_eq!(check_certificates(&program, &certs), vec![]);
    }

    #[test]
    fn degraded_outcomes_yield_checkable_bounds() {
        let nest = example8();
        let budget = AnalysisBudget::unlimited().with_max_iterations(10);
        let e = Session::new()
            .budget(budget)
            .optimize(&nest)
            .expect_err("ten iterations cannot cover 250");
        let cert = certify_degraded(0, &nest, &e);
        let program = loopmem_ir::Program::new(vec![nest]).unwrap();
        assert_eq!(check_certificates(&program, &[cert]), vec![]);
    }

    #[test]
    fn scratchpad_answers_carry_valid_certificates() {
        let program = parse_program(
            "array A[16][16]\narray B[16][16]\narray C[16][16]\n\
             for i = 1 to 16 { for j = 1 to 16 { A[i][j] = B[i][j]; } }\n\
             for i = 1 to 16 { for j = 1 to 16 { C[i][j] = A[i][j] + A[i][j]; } }",
        )
        .unwrap();
        let (governed, plan) = Session::new().threads(1).scratchpad(&program).unwrap();
        let plan = plan.expect("exact baseline runs the fusion search");
        let mut certs = vec![certify_sizing(&plan.unfused), certify_fusion(&plan)];
        certs.extend(certify_governed_scratchpad(&governed));
        assert_eq!(check_certificates(&program, &certs), vec![]);
    }
}
