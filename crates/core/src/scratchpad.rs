//! Inter-nest shared-scratchpad sizing with a greedy fusion search
//! (multi-nest extension of the paper's §5 direction).
//!
//! The paper sizes a scratchpad for *one* nest via the maximum window size
//! (MWS). Real embedded programs run sequences of nests that hand whole
//! arrays across boundaries, so a single shared scratchpad has to hold,
//! at any instant inside nest `k`, both the nest's own working window and
//! every value in flight across its boundaries. This module sizes that
//! scratchpad as
//!
//! ```text
//! words = max( max_k (MWS_k + live_through_k),  max_b boundary_live[b] )
//! ```
//!
//! where `live_through_k = |in_k ∪ out_k|` counts the elements whose
//! lifetime crosses a boundary of nest `k` (live at its entry, its exit,
//! or both). Soundness: an element live at global time `t` inside nest
//! `k` either has both its first and last touch inside nest `k` — then it
//! is inside nest `k`'s own window, so at most `MWS_k` such elements are
//! live — or its lifetime crosses a boundary of `k`, putting it in
//! `in_k ∪ out_k`. Hence `live(t) <= MWS_k + live_through_k <= words` for
//! every `t`, so `words >= program MWS` always holds. The boundary term
//! is dominated by the nest terms (`boundary_live[k] = out_k <=
//! live_through_k`) but is kept in the report: it is the irreducible
//! inter-phase buffer that no reordering can shrink.
//!
//! The fusion search then folds in the §5 direction: greedily fuse legal
//! conformable adjacent pairs ([`crate::fusion::fuse`]) whenever fusion
//! *strictly shrinks* the scratchpad size, re-sizing after every accepted
//! fusion and rescanning from the start. Fusion lets a produced element
//! die iterations — not nests — after its production, collapsing the
//! `live_through` term; but it can also inflate `MWS_k` of the merged
//! nest, so acceptance is decided on the re-sized whole, never assumed.
//!
//! [`Session::scratchpad_sizing`](crate::Session::scratchpad_sizing) and
//! [`Session::scratchpad`](crate::Session::scratchpad) are the entry
//! points. Sizing consumes the budgeted program simulation end to end:
//! when any nest degrades to analytical `Bounds` instead of an exact
//! sweep, the scratchpad size propagates as an interval — sized to the
//! upper bound, slack reported — and stays bit-identical for every
//! worker-thread count.

use crate::fusion::fuse;
use loopmem_ir::{AnalysisError, Bounds, BoundsMethod, Program};
use loopmem_obs::{EventKind, Phase, TraceEvent};
use loopmem_sim::{
    analytic_nest_bounds, try_simulate_program_tracked, BudgetTracker, GovernedProgramSim,
    ProgramSimResult,
};

/// One nest's contribution to the shared-scratchpad size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NestTerm {
    /// The nest's own exact MWS (nest-local window peak).
    pub mws: u64,
    /// Elements whose lifetime crosses a boundary of this nest
    /// (`|in_k ∪ out_k|`).
    pub live_through: u64,
}

impl NestTerm {
    /// The nest's scratchpad demand: `MWS_k + live_through_k`.
    pub fn words(&self) -> u64 {
        self.mws.saturating_add(self.live_through)
    }
}

/// Exact shared-scratchpad sizing of a whole program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScratchpadSizing {
    /// The scratchpad size in words:
    /// `max(max_k term_k, max_b boundary_live[b])`.
    pub words: u64,
    /// Per-nest sizing terms, in program order.
    pub per_nest: Vec<NestTerm>,
    /// Live words at each internal nest boundary (straight from the
    /// program simulation).
    pub boundary_live: Vec<u64>,
    /// Index of the nest whose term realises `words` (0 for an empty
    /// program).
    pub peak_nest: usize,
    /// The exact whole-program MWS, for reference: `words >= program_mws`
    /// always (see the module docs for the argument).
    pub program_mws: u64,
}

/// Folds a program simulation into the sizing formula.
fn sizing_from_sim(sim: &ProgramSimResult) -> ScratchpadSizing {
    let per_nest: Vec<NestTerm> = sim
        .per_nest_mws
        .iter()
        .zip(&sim.live_through)
        .map(|(&mws, &live_through)| NestTerm { mws, live_through })
        .collect();
    let mut words = 0u64;
    let mut peak_nest = 0usize;
    for (k, term) in per_nest.iter().enumerate() {
        if term.words() > words {
            words = term.words();
            peak_nest = k;
        }
    }
    // `boundary_live[b] <= live_through` of both adjacent nests, so this
    // max never changes `words`; taking it anyway keeps the formula
    // honest if the invariant ever shifts.
    for &b in &sim.boundary_live {
        words = words.max(b);
    }
    ScratchpadSizing {
        words,
        per_nest,
        boundary_live: sim.boundary_live.clone(),
        peak_nest,
        program_mws: sim.mws_total,
    }
}

/// One accepted fusion during the greedy search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FusionStep {
    /// Boundary index fused, in the program *as it stood* when the step
    /// was accepted (after earlier steps).
    pub at: usize,
    /// Scratchpad words before this fusion.
    pub words_before: u64,
    /// Scratchpad words after (strictly smaller).
    pub words_after: u64,
}

/// Outcome of the fusion search: the (possibly fused) program, its
/// sizing, and the plan that got there.
#[derive(Clone, Debug)]
pub struct ScratchpadPlan {
    /// The program with every accepted fusion applied.
    pub program: Program,
    /// Sizing of the fused program (`fused.words <= unfused.words`).
    pub fused: ScratchpadSizing,
    /// Sizing of the original program.
    pub unfused: ScratchpadSizing,
    /// Accepted fusions, in order.
    pub steps: Vec<FusionStep>,
    /// Original nest indices making up each nest of the fused program,
    /// in program order (singletons where nothing fused).
    pub groups: Vec<Vec<usize>>,
}

/// Greedy fusion search from `unfused`, the program's exact sizing:
/// repeatedly scan adjacent pairs from the start, fuse the first legal
/// pair whose fusion *strictly shrinks* the scratchpad size, re-size, and
/// rescan. Terminates because every accepted step reduces both the nest
/// count and `words`; the scan order is fixed, so the result is
/// deterministic and bit-identical for every `threads` value.
///
/// Legal-but-harmful fusions (conformable, dependence-preserving, yet
/// `words` grows — e.g. merging two fat independent working sets into one
/// window) are rejected by the strict-decrease test. Candidate re-sizings
/// run under an unlimited tracker of their own, not the caller's budget;
/// a candidate whose re-sizing is not exact is rejected too.
pub(crate) fn fusion_search(
    program: &Program,
    unfused: ScratchpadSizing,
    threads: usize,
) -> ScratchpadPlan {
    let tracker = BudgetTracker::unlimited();
    let resize = |p: &Program| {
        try_simulate_program_tracked(p, threads, &tracker)
            .ok()
            .filter(GovernedProgramSim::all_exact)
            .map(|gov| sizing_from_sim(&gov.sim))
    };
    let mut current = program.clone();
    let mut sizing = unfused.clone();
    let mut groups: Vec<Vec<usize>> = (0..program.len()).map(|k| vec![k]).collect();
    let mut steps = Vec::new();
    loop {
        let mut accepted = false;
        for k in 0..current.len().saturating_sub(1) {
            let Ok(candidate) = fuse(&current, k) else {
                continue;
            };
            let Some(resized) = resize(&candidate) else {
                continue;
            };
            if resized.words < sizing.words {
                steps.push(FusionStep {
                    at: k,
                    words_before: sizing.words,
                    words_after: resized.words,
                });
                let merged = groups.remove(k + 1);
                groups[k].extend(merged);
                current = candidate;
                sizing = resized;
                accepted = true;
                break; // a fusion changed the boundary set: rescan
            }
        }
        if !accepted {
            break;
        }
    }
    ScratchpadPlan {
        program: current,
        fused: sizing,
        unfused,
        steps,
        groups,
    }
}

// ---------------------------------------------------------------- trace --

/// Fusion-step events sort after every per-nest sizing term: nest counts
/// stay far below this base, so the two ord ranges never collide.
const FUSION_ORD_BASE: u64 = 1 << 32;

fn sizing_span_begin() -> TraceEvent {
    TraceEvent {
        phase: Phase::Sizing,
        nest: None,
        ord: (0, 0),
        kind: EventKind::SpanBegin { label: "sizing" },
    }
}

fn sizing_span_end(micros: u64, charged: u64) -> TraceEvent {
    TraceEvent {
        phase: Phase::Sizing,
        nest: None,
        ord: (u64::MAX, 0),
        kind: EventKind::SpanEnd {
            label: "sizing",
            micros,
            charged,
        },
    }
}

/// One `sizing-term` event per exactly-sized nest, at `ord = 1 + k` so a
/// degraded nest leaves a gap instead of shifting later terms.
fn sizing_term_events(terms: impl Iterator<Item = Option<NestTerm>>) -> Vec<TraceEvent> {
    terms
        .enumerate()
        .filter_map(|(k, t)| {
            t.map(|term| TraceEvent {
                phase: Phase::Sizing,
                nest: Some(k as u32),
                ord: (1 + k as u64, 0),
                kind: EventKind::SizingTerm {
                    mws: term.mws,
                    live_through: term.live_through,
                },
            })
        })
        .collect()
}

/// One `fusion-step` event per accepted step, in acceptance order.
pub(crate) fn fusion_step_events(steps: &[FusionStep]) -> Vec<TraceEvent> {
    steps
        .iter()
        .enumerate()
        .map(|(i, s)| TraceEvent {
            phase: Phase::Sizing,
            nest: None,
            ord: (FUSION_ORD_BASE + i as u64, 0),
            kind: EventKind::FusionStep {
                at: s.at as u64,
                before: s.words_before,
                after: s.words_after,
            },
        })
        .collect()
}

/// Governed shared-scratchpad sizing: per-nest outcomes plus an interval
/// on the scratchpad size that stays honest when nests degrade.
#[derive(Debug)]
pub struct GovernedScratchpad {
    /// Scratchpad size interval. A point interval when every nest
    /// simulated exactly; otherwise `[subset words, subset words + 2·F]`
    /// (`PartialProgram`), where `F` sums the failed nests' analytical
    /// distinct-element uppers — a degraded nest's elements can enter the
    /// formula at most twice (once in some `MWS_k`, once in some
    /// `live_through_k`), and dropping its accesses never grows any term
    /// (lower). **Size the scratchpad to `words.upper`**; `words.slack()`
    /// is the possible over-provisioning.
    pub words: Bounds,
    /// Per nest, in program order: the nest's sizing term, or why its
    /// analysis degraded.
    pub per_nest: Vec<Result<NestTerm, AnalysisError>>,
    /// Sizing of the successfully-simulated subset (equals the exact
    /// sizing when [`all_exact`](GovernedScratchpad::all_exact)).
    pub sizing: ScratchpadSizing,
}

impl GovernedScratchpad {
    /// True when every nest simulated exactly (the interval is a point).
    pub fn all_exact(&self) -> bool {
        self.per_nest.iter().all(Result::is_ok)
    }
}

/// Folds a governed program simulation into interval sizing. The interval
/// argument mirrors [`GovernedProgramSim`]'s, doubled: restoring a failed
/// nest's accesses can add each of its (at most `upper_j`) elements to
/// one `MWS_k` *and* one `live_through_k` of the peak term, while every
/// element untouched by failed nests contributes to the full program's
/// terms exactly what it contributes to the subset's.
fn governed_sizing(program: &Program, gov: GovernedProgramSim) -> GovernedScratchpad {
    let sizing = sizing_from_sim(&gov.sim);
    let mut failed_upper = 0u64;
    let mut salvaged_lower = 0u64;
    let mut per_nest = Vec::with_capacity(gov.per_nest.len());
    for (k, outcome) in gov.per_nest.into_iter().enumerate() {
        match outcome {
            Ok(_) => per_nest.push(Ok(NestTerm {
                mws: gov.sim.per_nest_mws[k],
                live_through: gov.sim.live_through[k],
            })),
            Err(e) => {
                // `Exhausted` carries the nest's analytical upper already;
                // recompute for the other failure modes (pure interval
                // analysis — cannot panic).
                let upper = match e.bounds() {
                    Some(b) => b.upper,
                    None => analytic_nest_bounds(&program.nests()[k]).upper,
                };
                failed_upper = failed_upper.saturating_add(upper);
                // A salvaged-prefix lower bound on a failed nest's MWS also
                // lower-bounds the shared buffer: the buffer must hold at
                // least `MWS_k (+ live-through_k)` words during nest k.
                if let Some(b) = e.bounds() {
                    salvaged_lower = salvaged_lower.max(b.lower);
                }
                per_nest.push(Err(e));
            }
        }
    }
    let words = if per_nest.iter().all(Result::is_ok) {
        Bounds::exact(sizing.words)
    } else {
        Bounds {
            lower: sizing.words.max(salvaged_lower),
            upper: sizing.words.saturating_add(failed_upper.saturating_mul(2)),
            method: BoundsMethod::PartialProgram,
        }
    };
    GovernedScratchpad {
        words,
        per_nest,
        sizing,
    }
}

/// Governed shared-scratchpad sizing, charging `tracker` (one deadline,
/// one cumulative iteration budget). Per-nest failures are contained —
/// the failing nest degrades to its analytical bounds and widens the
/// interval; every other nest still contributes exactly. Results are
/// bit-identical for every `threads` value. With a trace sink attached,
/// narrates a `sizing` span bracketing one `sizing-term` event per
/// exactly-sized nest.
///
/// # Errors
///
/// Only whole-program failures of the underlying simulation (e.g. the
/// global table fold exceeding the tracker's table cap); per-nest
/// failures degrade to the interval instead.
pub(crate) fn try_scratchpad_program_tracked(
    program: &Program,
    threads: usize,
    tracker: &BudgetTracker,
) -> Result<GovernedScratchpad, AnalysisError> {
    let started = tracker.trace().map(|_| std::time::Instant::now());
    let gov = try_simulate_program_tracked(program, threads, tracker)?;
    let governed = governed_sizing(program, gov);
    if let Some(sink) = tracker.trace() {
        let mut events = vec![sizing_span_begin()];
        events.extend(sizing_term_events(
            governed.per_nest.iter().map(|r| r.as_ref().ok().copied()),
        ));
        let charged = governed.per_nest.iter().filter(|r| r.is_ok()).count() as u64;
        let micros = started.map_or(0, |s| s.elapsed().as_micros() as u64);
        events.push(sizing_span_end(micros, charged));
        sink.record_all(events);
    }
    Ok(governed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;
    use loopmem_ir::parse_program;
    use loopmem_sim::AnalysisBudget;

    fn producer_consumer() -> Program {
        parse_program(
            "array A[8][8]\narray B[8][8]\narray C[8][8]\n\
             for i = 1 to 8 { for j = 1 to 8 { A[i][j] = B[i][j]; } }\n\
             for i = 1 to 8 { for j = 1 to 8 { C[i][j] = A[i][j] + A[i][j]; } }",
        )
        .unwrap()
    }

    /// The exact sizing of `p` at `threads` workers.
    fn sizing(p: &Program, threads: usize) -> ScratchpadSizing {
        let gov = Session::new()
            .threads(threads)
            .scratchpad_sizing(p)
            .unwrap();
        assert!(gov.all_exact());
        gov.sizing
    }

    #[test]
    fn sizing_dominates_program_mws_and_boundaries() {
        let p = producer_consumer();
        let s = sizing(&p, 1);
        assert_eq!(s.per_nest.len(), 2);
        assert_eq!(s.boundary_live, vec![64]);
        assert!(s.words >= s.program_mws);
        assert!(s.words >= 64);
        // All of A crosses the boundary in both directions of one nest.
        assert_eq!(s.per_nest[0].live_through, 64);
        assert_eq!(s.per_nest[1].live_through, 64);
    }

    #[test]
    fn fusion_shrinks_the_producer_consumer_scratchpad() {
        let p = producer_consumer();
        let plan = fusion_search(&p, sizing(&p, 1), 1);
        assert_eq!(plan.steps.len(), 1);
        assert_eq!(plan.groups, vec![vec![0, 1]]);
        assert!(
            plan.fused.words < plan.unfused.words,
            "{} !< {}",
            plan.fused.words,
            plan.unfused.words
        );
        assert_eq!(plan.program.len(), 1);
    }

    #[test]
    fn sizing_is_thread_count_invariant() {
        let p = producer_consumer();
        let one = sizing(&p, 1);
        for t in [2, 4] {
            assert_eq!(sizing(&p, t), one);
        }
    }

    #[test]
    fn governed_exact_matches_ungoverned() {
        // A budget that never trips sizes exactly what the unlimited one
        // does, as a point interval.
        let p = producer_consumer();
        let exact = sizing(&p, 1);
        let gov = Session::new()
            .budget(AnalysisBudget::unlimited().with_max_iterations(1_000_000))
            .scratchpad_sizing(&p)
            .unwrap();
        assert!(gov.all_exact());
        assert_eq!(gov.words, Bounds::exact(exact.words));
        assert_eq!(gov.sizing, exact);
        assert_eq!(gov.words.slack(), 0);
    }

    #[test]
    fn single_nest_sizing_is_its_mws() {
        let p = parse_program(
            "array A[16][16]\n\
             for i = 2 to 16 { for j = 1 to 16 { A[i][j] = A[i-1][j]; } }",
        )
        .unwrap();
        let s = sizing(&p, 2);
        assert_eq!(s.per_nest.len(), 1);
        assert_eq!(s.per_nest[0].live_through, 0);
        assert_eq!(s.words, s.program_mws);
        assert!(s.boundary_live.is_empty());
    }
}
