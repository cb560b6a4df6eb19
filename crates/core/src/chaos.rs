//! Chaos-differential harness: sweeps deterministic injected faults across
//! the governed entry points and checks six oracles on every run.
//!
//! One seed expands into a full case matrix — (entry point × fault kind ×
//! fault timing × thread count) — over a parsed source file. Faults are
//! [`FaultPlan`]s pinned to logical positions (poll quanta, nest indices),
//! so each case replays bit-identically; see `loopmem-sim::faults`.
//!
//! The oracles, checked per case and across the matrix:
//!
//! 1. **No panic escapes.** Every governed call runs under `catch_unwind`;
//!    an unwind is a violation (the engines promise containment).
//! 2. **Bounds contain the truth.** A fault-free exact answer is computed
//!    once per quantity (nest-0 MWS, program MWS, scratchpad words); every
//!    [`Bounds`] any case returns — degraded, salvaged or exact — must
//!    contain it. Independently, all bounds for one quantity must pairwise
//!    intersect (`max(lower) ≤ min(upper)`), which catches contradictions
//!    even when the exact answer is too expensive to compute.
//! 3. **Determinism.** The same logical fault point must produce
//!    bit-identical canonicalized results for every thread count, in
//!    every case: under a counted trip (an iteration cap or an injected
//!    fault) the engines sweep a program's nests, and the program
//!    optimizer its searches, in program order.
//! 4. **Panic rebasing.** An injected panic targeting nest `k` must surface
//!    as [`AnalysisError::NestPanicked`] with exactly `nest == k` and the
//!    fixed [`INJECTED_PANIC`] message.
//! 5. **Degradation certifies.** A fault-tripped run must not be silent:
//!    every `Exhausted` claim converts into a bounds certificate
//!    ([`crate::cert::certify_bounds`]) that the *independent* checker in
//!    `loopmem-verify` replays and accepts.
//!
//! 6. **Observability is read-only.** Every case is replayed with a
//!    [`CollectingSink`] attached: the traced answer must be bit-identical
//!    to the untraced one, and the canonical NDJSON trace bit-identical
//!    across thread counts, in every case. The §4 search's candidate
//!    sweeps record no events, so which candidate absorbs a fault never
//!    shows in the stream.
//!
//! The harness also counts **salvaged-tighter** outcomes: `Exhausted`
//! payloads whose method is `salvaged-prefix` with `lower > 0` — strictly
//! tighter than the analytic fallback, whose lower bound is always 0.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use loopmem_ir::{
    parse_program, print_program, AnalysisError, Bounds, BoundsMethod, LoopNest, Program,
};
use loopmem_linalg::rng::Lcg;
use loopmem_obs::{CollectingSink, TraceSink};
use loopmem_sim::{
    try_simulate_with_threads, AnalysisBudget, CancelToken, FaultKind, FaultPlan, INJECTED_PANIC,
};

use crate::optimize::SearchMode;
use crate::Session;

/// Iteration cap for each chaos case: big enough that the small kernels
/// complete exactly and every injected fault threshold (at most 16 poll
/// quanta, 16 384 iterations) fires well before the real cap, small
/// enough that adversarial corpus files (huge iteration spaces) degrade
/// in milliseconds. Chaos never uses wall-clock budgets — deadlines are
/// not logical fault points.
pub const CASE_ITER_CAP: u64 = 32_768;

/// Iteration cap for the one-off fault-free baseline runs that establish
/// the exact answers oracle 2 checks containment against.
const EXACT_ITER_CAP: u64 = 100_000;

/// Thread counts every case is replayed at.
const THREADS: [usize; 3] = [1, 2, 4];

/// Outcome of one chaos sweep over one source file.
#[derive(Debug, Default)]
pub struct ChaosReport {
    /// Logical cases exercised (entry point × fault spec).
    pub cases: usize,
    /// Governed runs executed (cases × thread counts, plus baselines).
    pub runs: usize,
    /// Oracle violations, one human-readable line each. Empty means the
    /// sweep passed.
    pub violations: Vec<String>,
    /// Runs whose degraded result carried a salvaged-prefix lower bound
    /// strictly tighter than the analytic fallback (lower > 0).
    pub salvaged_tighter: usize,
}

impl ChaosReport {
    /// True when every oracle held on every case.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Which governed entry point a case drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    /// `Session::simulate` on the program's first nest.
    Simulate,
    /// `Session::optimize` on the program's first nest.
    Optimize,
    /// `Session::simulate_program` on the whole program.
    Pipeline,
    /// `Session::scratchpad_sizing` on the whole program.
    Scratchpad,
    /// `Session::optimize_program` on the whole program.
    OptimizeProgram,
}

impl Entry {
    fn label(self) -> &'static str {
        match self {
            Entry::Simulate => "simulate",
            Entry::Optimize => "optimize",
            Entry::Pipeline => "pipeline",
            Entry::Scratchpad => "scratchpad",
            Entry::OptimizeProgram => "optimize-program",
        }
    }
}

/// One fault to inject (or `kind: None` for the governed-but-fault-free
/// baseline column of the matrix). A fresh [`FaultPlan`] is built per run
/// so fire-once state never leaks between runs.
#[derive(Debug, Clone, Copy)]
struct FaultSpec {
    kind: Option<FaultKind>,
    at_poll: u64,
    nest: usize,
}

impl FaultSpec {
    fn label(&self) -> String {
        match self.kind {
            None => "none".to_string(),
            Some(FaultKind::Exhaust) => format!("exhaust@{}", self.at_poll),
            Some(FaultKind::Cancel) => format!("cancel@{}", self.at_poll),
            Some(FaultKind::Overflow) => format!("overflow@{}", self.at_poll),
            Some(FaultKind::RejectTables) => "reject-tables".to_string(),
            Some(FaultKind::PanicNest) => format!("panic-nest@{}", self.nest),
        }
    }

    /// The budget for one run of this case: the shared iteration cap, a
    /// fresh fault plan, and (for cancellation faults) a real token for the
    /// plan to flag.
    fn budget(&self) -> AnalysisBudget {
        let mut budget = AnalysisBudget::unlimited().with_max_iterations(CASE_ITER_CAP);
        if let Some(kind) = self.kind {
            budget =
                budget.with_fault_plan(Arc::new(FaultPlan::new(kind, self.at_poll, self.nest)));
            if kind == FaultKind::Cancel {
                budget = budget.with_cancel_token(CancelToken::new());
            }
        }
        budget
    }
}

/// The per-quantity pools oracle 2 accumulates [`Bounds`] into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Quantity {
    /// MWS of the program's first nest (simulate + optimize entries).
    Nest0Mws,
    /// Whole-program MWS (pipeline entry, optimize-program's baseline).
    ProgramMws,
    /// Scratchpad words (scratchpad entry).
    Words,
}

impl Quantity {
    fn label(self) -> &'static str {
        match self {
            Quantity::Nest0Mws => "nest0-mws",
            Quantity::ProgramMws => "program-mws",
            Quantity::Words => "words",
        }
    }
}

/// What one governed run produced, reduced to the canonical, comparable
/// core: a deterministic string plus the bounds/panic facts the oracles
/// inspect.
struct RunOutcome {
    /// Canonical serialization (sorted maps, volatile fields dropped);
    /// oracle 3 compares these across thread counts.
    canon: String,
    /// `(quantity, bounds)` claims this run made; oracle 2 pools them.
    claims: Vec<(Quantity, Bounds)>,
    /// Nest indices + messages of every `NestPanicked` the run surfaced.
    panics: Vec<(usize, String)>,
    /// True when the run was degraded by an `Exhausted` trip (oracle 5
    /// certifies its claims).
    exhausted: bool,
    /// Salvaged-prefix payloads with `lower > 0` (strictly tighter than
    /// the analytic fallback).
    salvaged_tighter: usize,
}

/// Canonical form of a `Bounds` (method included: salvage and analytic
/// payloads must not be conflated by oracle 3).
fn canon_bounds(b: &Bounds) -> String {
    format!("[{},{}]({})", b.lower, b.upper, b.method)
}

/// Folds an `AnalysisError` into the outcome being built.
fn absorb_error(out: &mut RunOutcome, quantity: Option<Quantity>, e: &AnalysisError) {
    match e {
        AnalysisError::Exhausted { partial, .. } => {
            out.exhausted = true;
            if partial.method == BoundsMethod::SalvagedPrefix && partial.lower > 0 {
                out.salvaged_tighter += 1;
            }
            if let Some(q) = quantity {
                out.claims.push((q, *partial));
            }
        }
        AnalysisError::NestPanicked { nest, message } => {
            out.panics.push((*nest, message.clone()));
        }
        AnalysisError::Overflow { .. } | AnalysisError::Invalid { .. } => {}
    }
}

/// Runs one case at one thread count and canonicalizes the result.
/// Panics escaping the governed entry point are themselves violations;
/// they are surfaced through the `canon` string so the caller can report
/// them with full case context.
fn run_case(
    program: &Program,
    nest0: Option<&LoopNest>,
    entry: Entry,
    spec: &FaultSpec,
    threads: usize,
    trace: Option<&Arc<dyn TraceSink>>,
) -> RunOutcome {
    let mut out = RunOutcome {
        canon: String::new(),
        claims: Vec::new(),
        panics: Vec::new(),
        exhausted: false,
        salvaged_tighter: 0,
    };
    let mut budget = spec.budget();
    if let Some(sink) = trace {
        budget = budget.with_trace(sink.clone());
    }
    // Interchange+reversal keeps the candidate space small (the chaos
    // matrix re-runs each search dozens of times); the governed machinery
    // under test — shared tracker, parallel candidate evaluation, error
    // normalization — is identical to the compound mode's.
    let session = Session::new()
        .threads(threads)
        .search_mode(SearchMode::InterchangeReversal)
        .budget(budget);
    // Each arm yields (canon, pool claim, errors to fold). Per-nest
    // degradations inside Ok payloads are errors too: their salvage, panic
    // and trip facts feed the oracles. A nest-0 degradation inside a
    // program entry claims the Nest0Mws pool — its payload bounds that
    // nest's own MWS, giving a cross-entry differential against
    // simulate/optimize.
    type Claims = Vec<(Quantity, Bounds)>;
    type Folds = Vec<(Option<Quantity>, AnalysisError)>;
    fn canon_nests<T>(per_nest: &[Result<T, AnalysisError>], ok: impl Fn(&T) -> String) -> String {
        let per: Vec<String> = per_nest
            .iter()
            .map(|r| match r {
                Ok(v) => format!("ok:{}", ok(v)),
                Err(e) => format!("err:{e}"),
            })
            .collect();
        format!("{per:?}")
    }
    fn nest_folds<T>(per_nest: &[Result<T, AnalysisError>]) -> Folds {
        per_nest
            .iter()
            .enumerate()
            .filter_map(|(k, r)| {
                let e = r.as_ref().err()?.clone();
                Some(((k == 0).then_some(Quantity::Nest0Mws), e))
            })
            .collect()
    }
    let failed =
        |q: Option<Quantity>, e: AnalysisError| (format!("err {e}"), Vec::new(), vec![(q, e)]);
    let caught = catch_unwind(AssertUnwindSafe(|| -> (String, Claims, Folds) {
        let nest0 = || nest0.expect("a nest entry requires a nest");
        match entry {
            Entry::Simulate => match session.simulate(nest0()) {
                Ok(sim) => {
                    let mut per: Vec<(usize, u64, u64, u64)> = sim
                        .per_array
                        .iter()
                        .map(|(id, st)| (id.0, st.distinct, st.accesses, st.mws))
                        .collect();
                    per.sort_unstable();
                    (
                        format!(
                            "ok iters={} mws={} per_array={per:?}",
                            sim.iterations, sim.mws_total
                        ),
                        vec![(Quantity::Nest0Mws, Bounds::exact(sim.mws_total))],
                        Vec::new(),
                    )
                }
                Err(e) => failed(Some(Quantity::Nest0Mws), e),
            },
            Entry::Optimize => match session.optimize(nest0()) {
                Ok(opt) => (
                    format!(
                        "ok before={} after={} considered={} transform={:?}",
                        opt.mws_before, opt.mws_after, opt.candidates_considered, opt.transform
                    ),
                    vec![(Quantity::Nest0Mws, Bounds::exact(opt.mws_before))],
                    Vec::new(),
                ),
                Err(e) => failed(Some(Quantity::Nest0Mws), e),
            },
            Entry::Pipeline => match session.simulate_program(program) {
                Ok(gov) => {
                    let mut distinct: Vec<(usize, u64)> =
                        gov.sim.distinct.iter().map(|(id, n)| (id.0, *n)).collect();
                    distinct.sort_unstable();
                    (
                        format!(
                            "ok bounds={} per_nest={} mws={} per_nest_mws={:?} distinct={distinct:?}",
                            canon_bounds(&gov.mws_bounds),
                            canon_nests(&gov.per_nest, |iters| iters.to_string()),
                            gov.sim.mws_total,
                            gov.sim.per_nest_mws
                        ),
                        vec![(Quantity::ProgramMws, gov.mws_bounds)],
                        nest_folds(&gov.per_nest),
                    )
                }
                Err(e) => failed(Some(Quantity::ProgramMws), e),
            },
            Entry::Scratchpad => match session.scratchpad_sizing(program) {
                Ok(gov) => (
                    format!(
                        "ok words={} per_nest={}",
                        canon_bounds(&gov.words),
                        canon_nests(&gov.per_nest, |t| format!("{}+{}", t.mws, t.live_through))
                    ),
                    vec![(Quantity::Words, gov.words)],
                    // Scratchpad per-nest payloads bound nest MWS terms,
                    // not words — folded for panic/salvage facts only.
                    gov.per_nest
                        .iter()
                        .filter_map(|r| r.as_ref().err().cloned().map(|e| (None, e)))
                        .collect(),
                ),
                // Top-level scratchpad errors carry nest-level bounds, not
                // words-level ones — no pool claim.
                Err(e) => failed(None, e),
            },
            Entry::OptimizeProgram => match session.optimize_program(program) {
                Ok(opt) => (
                    format!(
                        "ok before={} after={} per_nest={} program={:?}",
                        canon_bounds(&opt.mws_before),
                        canon_bounds(&opt.mws_after),
                        canon_nests(&opt.per_nest, |(b, a)| format!("{b}->{a}")),
                        print_program(&opt.transformed)
                    ),
                    vec![(Quantity::ProgramMws, opt.mws_before)],
                    nest_folds(&opt.per_nest),
                ),
                Err(e) => failed(Some(Quantity::ProgramMws), e),
            },
        }
    }));
    match caught {
        Ok((canon, claims, folds)) => {
            out.canon = canon;
            out.claims = claims;
            for (q, e) in &folds {
                absorb_error(&mut out, *q, e);
            }
        }
        Err(_) => out.canon = "PANIC-ESCAPED".to_string(),
    }
    out
}

/// Expands the fault column of the matrix for a program with `nnests`
/// nests: baseline, two exhaust timings, one cancel, one overflow, table
/// rejection, and injected panics targeting nest 0 plus a seed-chosen
/// other nest when the program has one.
fn fault_specs(seed: u64, nnests: usize) -> Vec<FaultSpec> {
    let mut rng = Lcg::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    // The early timing stays within a few poll quanta so injected trips
    // land even on the paper's small kernels; the late one probes deeper.
    let n1 = rng.range_i64(1, 4) as u64;
    let n2 = n1 + rng.range_i64(1, 8) as u64;
    let mut specs = vec![
        FaultSpec {
            kind: None,
            at_poll: 1,
            nest: 0,
        },
        FaultSpec {
            kind: Some(FaultKind::Exhaust),
            at_poll: n1,
            nest: 0,
        },
        FaultSpec {
            kind: Some(FaultKind::Exhaust),
            at_poll: n2,
            nest: 0,
        },
        FaultSpec {
            kind: Some(FaultKind::Cancel),
            at_poll: n1,
            nest: 0,
        },
        FaultSpec {
            kind: Some(FaultKind::Overflow),
            at_poll: n1,
            nest: 0,
        },
        FaultSpec {
            kind: Some(FaultKind::RejectTables),
            at_poll: 1,
            nest: 0,
        },
        FaultSpec {
            kind: Some(FaultKind::PanicNest),
            at_poll: 1,
            nest: 0,
        },
    ];
    if nnests > 1 {
        let k = 1 + rng.range_usize(0, nnests - 2);
        specs.push(FaultSpec {
            kind: Some(FaultKind::PanicNest),
            at_poll: 1,
            nest: k,
        });
    }
    specs
}

/// Chaos-sweeps one already-parsed program. See [`chaos_source`].
pub fn chaos_program(name: &str, program: &Program, seed: u64) -> ChaosReport {
    let mut report = ChaosReport::default();
    let nest0 = program.nests().first();
    let nnests = program.nests().len();

    // Fault-free exact baselines (oracle 2's ground truth). Each may be
    // unobtainable (the corpus includes astronomically large nests); the
    // intersection oracle still applies then.
    let exact_budget = AnalysisBudget::unlimited().with_max_iterations(EXACT_ITER_CAP);
    let exact_nest0 = nest0.and_then(|n| {
        report.runs += 1;
        try_simulate_with_threads(n, false, 1, &exact_budget)
            .ok()
            .map(|s| s.mws_total)
    });
    report.runs += 1;
    let exact_program = Session::new()
        .threads(1)
        .budget(exact_budget.clone())
        .simulate_program(program)
        .ok()
        .filter(|g| g.all_exact())
        .map(|g| g.sim.mws_total);
    report.runs += 1;
    let exact_words = Session::new()
        .threads(1)
        .budget(exact_budget.clone())
        .scratchpad_sizing(program)
        .ok()
        .filter(|g| g.words.is_exact())
        .map(|g| g.words.lower);
    let exact_of = |q: Quantity| match q {
        Quantity::Nest0Mws => exact_nest0,
        Quantity::ProgramMws => exact_program,
        Quantity::Words => exact_words,
    };

    let entries: Vec<Entry> = if nest0.is_some() {
        vec![
            Entry::Simulate,
            Entry::Optimize,
            Entry::Pipeline,
            Entry::Scratchpad,
            Entry::OptimizeProgram,
        ]
    } else {
        vec![Entry::Pipeline, Entry::Scratchpad, Entry::OptimizeProgram]
    };
    let mut pools: Vec<(Quantity, String, Bounds)> = Vec::new();
    // Oracle 5's dedup set, program-wide: checking a certificate is pure
    // in (program, quantity, bounds), and the analytic enclosures recur
    // identically across most of the fault matrix, so replaying each
    // distinct claim once covers every case that produced it.
    let mut certified: Vec<(Quantity, Bounds)> = Vec::new();

    for entry in &entries {
        for spec in fault_specs(seed, nnests) {
            report.cases += 1;
            let case = format!("{name}/{}/{}", entry.label(), spec.label());
            let mut outcomes: Vec<(usize, RunOutcome)> = Vec::new();
            // Oracle 6 replays: per thread count, the same run with a
            // collecting sink attached — `(threads, ndjson, canon)`.
            let mut traced: Vec<(usize, String, String)> = Vec::new();
            for &t in &THREADS {
                report.runs += 1;
                let out = run_case(program, nest0, *entry, &spec, t, None);
                report.runs += 1;
                let sink = Arc::new(CollectingSink::new());
                let dyn_sink: Arc<dyn TraceSink> = sink.clone();
                let traced_out = run_case(program, nest0, *entry, &spec, t, Some(&dyn_sink));
                if traced_out.canon == "PANIC-ESCAPED" {
                    report.violations.push(format!(
                        "{case} t={t}: panic escaped the governed entry point under tracing"
                    ));
                }
                traced.push((t, sink.drain().render_ndjson(), traced_out.canon));
                // Oracle 1: containment — nothing unwinds past a governed
                // entry point, faulted or not.
                if out.canon == "PANIC-ESCAPED" {
                    report.violations.push(format!(
                        "{case} t={t}: panic escaped the governed entry point"
                    ));
                }
                // Oracle 4: injected panics surface with the target index
                // and the fixed message; real (non-injected) panics in this
                // corpus only come from the injection.
                for (nest, message) in &out.panics {
                    if message == INJECTED_PANIC {
                        let want = if matches!(*entry, Entry::Simulate | Entry::Optimize) {
                            0
                        } else {
                            spec.nest
                        };
                        if spec.kind != Some(FaultKind::PanicNest) {
                            report.violations.push(format!(
                                "{case} t={t}: injected panic message without a panic fault"
                            ));
                        } else if *nest != want {
                            report.violations.push(format!(
                                "{case} t={t}: injected panic surfaced at nest {nest}, expected {want}"
                            ));
                        }
                    }
                }
                // Every claimed interval must be internally sane and flows
                // into oracle 2's pools.
                for (q, b) in &out.claims {
                    if b.lower > b.upper {
                        report.violations.push(format!(
                            "{case} t={t}: inverted bounds {} for {}",
                            canon_bounds(b),
                            q.label()
                        ));
                    }
                    pools.push((*q, format!("{case} t={t}"), *b));
                }
                report.salvaged_tighter += out.salvaged_tighter;
                outcomes.push((t, out));
            }
            // Oracle 5: degraded outcomes must still certify. Every
            // `Exhausted` claim is converted into a bounds certificate and
            // replayed by the independent checker; a rejection means the
            // degradation path produced evidence it cannot back up.
            // Claims are deduplicated program-wide first (the same
            // analytic enclosure recurs across most cases and thread
            // counts) to keep the replay work bounded.
            for (t, out) in &outcomes {
                if !out.exhausted {
                    continue;
                }
                for (q, b) in &out.claims {
                    if certified.contains(&(*q, *b)) {
                        continue;
                    }
                    certified.push((*q, *b));
                    let cert = match q {
                        Quantity::Nest0Mws => crate::cert::certify_bounds(
                            Some(0),
                            "nest-mws",
                            b,
                            "degraded under chaos",
                        ),
                        Quantity::Words => crate::cert::certify_bounds(
                            None,
                            "program-words",
                            b,
                            "degraded under chaos",
                        ),
                        // Program-MWS intervals bound a quantity the
                        // certificate vocabulary does not carry (words
                        // dominate it, so containment would be vacuous).
                        Quantity::ProgramMws => continue,
                    };
                    for v in
                        loopmem_verify::check_certificates(program, std::slice::from_ref(&cert))
                    {
                        report.violations.push(format!(
                            "{case} t={t}: degraded bounds certificate rejected: {} {}",
                            v.code, v.message
                        ));
                    }
                }
            }
            // Oracle 3: determinism across thread counts.
            let (t0, first) = &outcomes[0];
            for (t, o) in &outcomes[1..] {
                if o.canon != first.canon {
                    report.violations.push(format!(
                        "{case}: t={t0} and t={t} disagree:\n  t={t0}: {}\n  t={t}: {}",
                        first.canon, o.canon
                    ));
                }
            }
            // Oracle 6a: attaching a sink must not perturb the answer —
            // the traced run's canonical result equals the untraced one at
            // every t.
            for ((t, _, traced_canon), (_, out)) in traced.iter().zip(&outcomes) {
                if traced_canon != &out.canon {
                    report.violations.push(format!(
                        "{case} t={t}: tracing perturbed the answer:\n  untraced: {}\n  traced:   {}",
                        out.canon, traced_canon
                    ));
                }
            }
            // Oracle 6b: the canonical NDJSON trace is bit-identical
            // across thread counts.
            let (t0, first, _) = &traced[0];
            for (t, ndjson, _) in &traced[1..] {
                if ndjson != first {
                    report.violations.push(format!(
                        "{case}: trace bytes differ between t={t0} and t={t}"
                    ));
                }
            }
        }
    }

    // Oracle 2: every pooled interval contains the exact answer when known,
    // and all intervals for one quantity pairwise intersect.
    for q in [Quantity::Nest0Mws, Quantity::ProgramMws, Quantity::Words] {
        let claims: Vec<&(Quantity, String, Bounds)> =
            pools.iter().filter(|(pq, _, _)| *pq == q).collect();
        if claims.is_empty() {
            continue;
        }
        if let Some(exact) = exact_of(q) {
            for (_, case, b) in &claims {
                if !b.contains(exact) {
                    report.violations.push(format!(
                        "{case}: bounds {} exclude the fault-free exact {} = {exact}",
                        canon_bounds(b),
                        q.label()
                    ));
                }
            }
        }
        let (max_lower, min_upper) = claims.iter().fold((0u64, u64::MAX), |(lo, hi), (_, _, b)| {
            (lo.max(b.lower), hi.min(b.upper))
        });
        if max_lower > min_upper {
            report.violations.push(format!(
                "{name}: {} intervals do not intersect (max lower {max_lower} > min upper {min_upper})",
                q.label()
            ));
        }
    }
    report
}

/// Parses `src` and chaos-sweeps it; `name` labels violations. Parse
/// failures are reported as an error, not a violation — the chaos corpus
/// is expected to be syntactically valid.
///
/// # Errors
///
/// Returns the parse diagnostic when `src` is not a valid program.
pub fn chaos_source(name: &str, src: &str, seed: u64) -> Result<ChaosReport, String> {
    let program = parse_program(src).map_err(|e| format!("{name}: {e}"))?;
    Ok(chaos_program(name, &program, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE8: &str = r#"
        array X[200]
        for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }
    "#;

    const TWO_PHASE: &str = r#"
        array A[64][64]
        for i = 1 to 64 { for j = 1 to 64 { A[i][j] = A[i][j] + 1; } }
        for i = 1 to 64 { for j = 1 to 64 { A[i][j] = A[j][i]; } }
    "#;

    #[test]
    fn example8_sweep_is_clean() {
        let report = chaos_source("example8", EXAMPLE8, 42).unwrap();
        assert!(report.passed(), "violations: {:#?}", report.violations);
        assert!(
            report.cases >= 28,
            "matrix too small: {} cases",
            report.cases
        );
    }

    #[test]
    fn two_phase_program_sweep_is_clean() {
        let report = chaos_source("two-phase", TWO_PHASE, 7).unwrap();
        assert!(report.passed(), "violations: {:#?}", report.violations);
        // The multi-nest matrix includes the second panic target.
        assert!(
            report.cases >= 32,
            "matrix too small: {} cases",
            report.cases
        );
    }

    #[test]
    fn salvage_produces_strictly_tighter_lower_bounds() {
        // A nest big enough that every exhaust timing leaves a non-trivial
        // completed prefix: the salvaged lower bound must beat the analytic
        // fallback's 0 somewhere in the sweep.
        let src = r#"
            array A[300][300]
            for i = 1 to 300 { for j = 1 to 300 { A[i][j] = A[i][j] + A[j][i]; } }
        "#;
        let report = chaos_source("big-transpose", src, 3).unwrap();
        assert!(report.passed(), "violations: {:#?}", report.violations);
        assert!(
            report.salvaged_tighter > 0,
            "expected at least one salvaged-prefix bound tighter than analytic"
        );
    }

    #[test]
    fn parse_errors_are_reported_not_panicked() {
        let err = chaos_source("bad", "not a program", 1).unwrap_err();
        assert!(err.starts_with("bad: "), "got: {err}");
    }
}
