//! The workloads' verb chains and the traced layer ledger. Every library
//! call goes through the public API: `loopmem::Session` and the crate
//! functions the facade re-exports.

use crate::gen::{self, Input, FAMILIES};
use crate::span::Tracer;
use loopmem::core::{certify_fusion, certify_governed_scratchpad, certify_optimization};
use loopmem::ir::{AnalysisError, Bounds, BoundsMethod, LoopNest, Program};
use loopmem::obs::{CollectingSink, TraceSink};
use loopmem::sim::AnalysisBudget;
use loopmem::verify::{check_certificates, Certificate};
use loopmem::Session;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Sweep,
    Search,
    Program,
    Governed,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::Sweep,
    Workload::Search,
    Workload::Program,
    Workload::Governed,
];

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        WORKLOADS.into_iter().find(|w| w.label() == s)
    }

    pub fn label(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::Search => "search",
            Workload::Program => "program",
            Workload::Governed => "governed",
        }
    }

    /// The workload's inputs for `seed`. `probe` shrinks them to the
    /// handful a traced run of another workload borrows for the layers
    /// that workload does not reach.
    pub fn inputs(self, seed: u64, probe: bool) -> Result<Vec<Input>, String> {
        Ok(match (self, probe) {
            (Workload::Sweep, false) => gen::sweep(seed, 17),
            (Workload::Sweep, true) => gen::sweep(seed, 1),
            (Workload::Search, false) => gen::search(seed, 30)?,
            (Workload::Search, true) => gen::search(seed, 6)?.split_off(gen::corpus()?.len()),
            (Workload::Program, false) => gen::programs(seed, 12),
            (Workload::Program, true) => gen::programs(seed, 1),
            (Workload::Governed, false) => gen::governed(seed, 15)?,
            (Workload::Governed, true) => {
                let mut v = gen::governed(seed, 1)?;
                v.retain(|i| i.family.is_some() || i.name.starts_with("huge_iteration_space"));
                v
            }
        })
    }
}

/// One input, parsed.
pub struct Parsed {
    pub input: Input,
    pub program: Program,
}

impl Parsed {
    pub fn nests(&self) -> &[LoopNest] {
        self.program.nests()
    }
}

pub fn parse_all(inputs: Vec<Input>) -> Result<Vec<Parsed>, String> {
    inputs
        .into_iter()
        .map(|mut input| {
            let program = loopmem::ir::parse_program(&input.source)
                .map_err(|e| format!("{}: {e}", input.name))?;
            if input.volume == 0 && input.family.is_none() && input.cap.is_none() {
                input.volume = program
                    .nests()
                    .iter()
                    .map(loopmem::sim::count_iterations)
                    .sum();
            }
            Ok(Parsed { input, program })
        })
        .collect()
}

/// What one pass over a workload's inputs produced.
#[derive(Default)]
pub struct PassOut {
    /// `(verb, input index, milliseconds)` per library call, in call order.
    pub calls: Vec<(&'static str, usize, f64)>,
    /// Index of the input being handled.
    pub input: usize,
    /// One answer digest per input; equal digests mean equal answers.
    pub answers: Vec<String>,
    pub failures: Vec<String>,
    pub attempted: u64,
    /// Σ words the answers tell a user to reserve (inputs with a known
    /// exact reference only).
    pub words: u64,
    pub iterations: u64,
    pub nests: u64,
    pub wall_s: f64,
    pub stats: Stats,
}

/// Counts the chain gathers for the per-layer ledger.
#[derive(Default, Clone)]
pub struct Stats {
    pub candidates: u64,
    pub evaluated: u64,
    pub certs: u64,
    pub cert_bytes: u64,
    pub violations: u64,
    pub fusion_steps: u64,
    pub salvages: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    /// Certificates a `certify(true)` session emits for these calls.
    pub session_certs: u64,
    /// Governed sweep-family inputs: `(input index, answer interval)`.
    pub governed_inputs: Vec<(usize, Bounds)>,
}

fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into())
    })
}

fn timed<T>(
    out: &mut PassOut,
    tracer: &mut Tracer,
    verb: &'static str,
    span: &'static str,
    f: impl FnOnce() -> T,
) -> Result<T, String> {
    let t = Instant::now();
    let r = tracer.span(span, |_| guarded(f));
    out.calls
        .push((verb, out.input, t.elapsed().as_secs_f64() * 1e3));
    out.attempted += 1;
    r
}

fn bounds_digest(b: &Bounds) -> String {
    format!("{}..{}:{:?}", b.lower, b.upper, b.method)
}

fn error_digest(e: &AnalysisError) -> String {
    match e.bounds() {
        Some(b) => format!("bounded {}", bounds_digest(&b)),
        None => match e {
            AnalysisError::Overflow { .. } => "overflow".into(),
            AnalysisError::Invalid { .. } => "invalid".into(),
            AnalysisError::NestPanicked { nest, .. } => format!("panicked {nest}"),
            _ => "error".into(),
        },
    }
}

fn cert_bytes(certs: &[Certificate]) -> u64 {
    certs
        .iter()
        .map(|c| c.to_json_line().len() as u64 + 1)
        .sum()
}

/// Runs the workload's verb chain over `inputs` on `session`. With
/// `detail`, also gathers the byte sizes the traced ledger reports.
pub fn chain(
    w: Workload,
    inputs: &[Parsed],
    session: &Session,
    tracer: &mut Tracer,
    detail: bool,
) -> PassOut {
    let mut out = PassOut::default();
    let (h0, m0) = loopmem::core::memo_stats();
    let t = Instant::now();
    for (idx, p) in inputs.iter().enumerate() {
        tracer.set_input(idx as u32);
        out.input = idx;
        tracer.span("bench.input", |tr| match w {
            Workload::Sweep => sweep_one(&mut out, p, session, tr),
            Workload::Search => search_one(&mut out, p, session, tr, detail),
            Workload::Program => program_one(&mut out, p, session, tr, detail),
            Workload::Governed => governed_one(&mut out, idx, p, session, tr),
        });
    }
    out.wall_s = t.elapsed().as_secs_f64();
    let (h1, m1) = loopmem::core::memo_stats();
    out.stats.memo_hits = h1 - h0;
    out.stats.memo_misses = m1 - m0;
    out
}

fn sweep_one(out: &mut PassOut, p: &Parsed, session: &Session, tr: &mut Tracer) {
    let nest = &p.nests()[0];
    match timed(out, tr, "simulate", "sim.simulate", || {
        session.simulate(nest)
    }) {
        Ok(Ok(sim)) => {
            out.words += sim.mws_total;
            out.iterations += sim.iterations;
            out.nests += 1;
            out.stats.session_certs += 1;
            out.answers.push(format!(
                "{} {} {}",
                sim.mws_total,
                sim.distinct_total(),
                sim.iterations
            ));
        }
        Ok(Err(e)) => fail(out, p, &format!("simulate: {e}")),
        Err(e) => fail(out, p, &format!("simulate panicked: {e}")),
    }
}

fn fail(out: &mut PassOut, p: &Parsed, why: &str) {
    out.failures.push(format!("{}: {why}", p.input.name));
    out.answers.push(format!("failed {why}"));
}

fn search_one(out: &mut PassOut, p: &Parsed, session: &Session, tr: &mut Tracer, detail: bool) {
    let nest = &p.nests()[0];
    let opt = match timed(out, tr, "optimize", "core.optimize", || {
        session.optimize(nest)
    }) {
        Ok(Ok(opt)) => opt,
        Ok(Err(e)) => return fail(out, p, &format!("optimize: {e}")),
        Err(e) => return fail(out, p, &format!("optimize panicked: {e}")),
    };
    out.nests += 1;
    out.iterations += p.input.volume;
    out.words += opt.mws_after;
    out.stats.candidates += opt.candidates_considered as u64;
    out.stats.evaluated += opt.evaluated.len() as u64;
    out.stats.session_certs += 3;
    verify_step(out, tr, p, detail, || certify_optimization(0, nest, &opt));
    if opt.mws_after > opt.mws_before {
        out.failures
            .push(format!("{}: optimizer grew the window", p.input.name));
    }
    let rows: Vec<String> = opt
        .transform
        .rows_iter()
        .map(|r| format!("{r:?}"))
        .collect();
    out.answers.push(format!(
        "{} {} {}",
        opt.mws_before,
        opt.mws_after,
        rows.join("")
    ));
}

/// The `verify` verb as two library calls: certify an answer (`core`),
/// then re-check the certificates in the independent checker (`verify`).
fn verify_step(
    out: &mut PassOut,
    tr: &mut Tracer,
    p: &Parsed,
    detail: bool,
    certify: impl FnOnce() -> Vec<Certificate>,
) {
    let certs = match timed(out, tr, "certify", "core.cert", certify) {
        Ok(certs) => certs,
        Err(e) => {
            return out
                .failures
                .push(format!("{}: certify panicked: {e}", p.input.name))
        }
    };
    out.stats.certs += certs.len() as u64;
    if detail {
        out.stats.cert_bytes += cert_bytes(&certs);
    }
    match timed(out, tr, "check", "verify.check", || {
        check_certificates(&p.program, &certs)
    }) {
        Ok(violations) => {
            out.stats.violations += violations.len() as u64;
            if !violations.is_empty() {
                out.failures.push(format!(
                    "{}: {} certificate violations",
                    p.input.name,
                    violations.len()
                ));
            }
        }
        Err(e) => out
            .failures
            .push(format!("{}: check panicked: {e}", p.input.name)),
    }
}

fn program_one(out: &mut PassOut, p: &Parsed, session: &Session, tr: &mut Tracer, detail: bool) {
    let program = &p.program;
    let sim = match timed(out, tr, "simulate-program", "sim.program", || {
        session.simulate_program(program)
    }) {
        Ok(Ok(sim)) => sim,
        Ok(Err(e)) => return fail(out, p, &format!("simulate_program: {e}")),
        Err(e) => return fail(out, p, &format!("simulate_program panicked: {e}")),
    };
    let (gov, plan) = match timed(out, tr, "scratchpad", "core.scratchpad", || {
        session.scratchpad(program)
    }) {
        Ok(Ok(x)) => x,
        Ok(Err(e)) => return fail(out, p, &format!("scratchpad: {e}")),
        Err(e) => return fail(out, p, &format!("scratchpad panicked: {e}")),
    };
    let Some(plan) = plan else {
        return fail(out, p, "scratchpad: baseline not exact, no fusion plan");
    };
    let popt = match timed(out, tr, "optimize-program", "core.optimize_program", || {
        session.optimize_program(program)
    }) {
        Ok(Ok(x)) => x,
        Ok(Err(e)) => return fail(out, p, &format!("optimize_program: {e}")),
        Err(e) => return fail(out, p, &format!("optimize_program panicked: {e}")),
    };
    let gov_certs = certify_governed_scratchpad(&gov).len() as u64;
    out.stats.session_certs += gov_certs + 1;
    verify_step(out, tr, p, detail, || {
        let mut certs = certify_governed_scratchpad(&gov);
        certs.push(certify_fusion(&plan));
        certs
    });
    out.nests += program.len() as u64;
    out.iterations += sim.sim.per_nest_iterations.iter().sum::<u64>();
    out.words += plan.fused.words;
    out.stats.fusion_steps += plan.steps.len() as u64;
    out.answers.push(format!(
        "{} {:?} {} {} {} {}",
        sim.sim.mws_total,
        sim.sim.boundary_live,
        bounds_digest(&gov.words),
        plan.fused.words,
        plan.steps.len(),
        bounds_digest(&popt.mws_after)
    ));
}

/// The session `base` with an iteration cap (its trace sink kept).
fn capped(base: &Session, cap: u64) -> Session {
    let mut budget = AnalysisBudget::unlimited().with_max_iterations(cap);
    if let Some(sink) = base.analysis_budget().trace() {
        budget = budget.with_trace(sink.clone());
    }
    base.clone().budget(budget)
}

fn governed_one(out: &mut PassOut, idx: usize, p: &Parsed, session: &Session, tr: &mut Tracer) {
    let cap = p.input.cap.unwrap_or(gen::PATHOLOGICAL_CAP);
    let s = capped(session, cap);
    let mut digest = Vec::new();
    for nest in p.nests() {
        match timed(out, tr, "simulate", "sim.governed", || s.simulate(nest)) {
            Ok(Ok(sim)) => {
                out.iterations += sim.iterations;
                out.stats.session_certs += 1;
                digest.push(format!("exact {}", sim.mws_total));
                if p.input.family.is_some() {
                    out.words += sim.mws_total;
                    out.stats
                        .governed_inputs
                        .push((idx, Bounds::exact(sim.mws_total)));
                }
            }
            Ok(Err(e)) => {
                if let Some(b) = e.bounds() {
                    out.iterations += cap;
                    if b.method == BoundsMethod::SalvagedPrefix {
                        out.stats.salvages += 1;
                    }
                    if p.input.family.is_some() {
                        out.words += b.upper;
                        out.stats.governed_inputs.push((idx, b));
                    }
                }
                digest.push(error_digest(&e));
            }
            Err(e) => {
                out.failures
                    .push(format!("{}: simulate panicked: {e}", p.input.name));
                digest.push("panicked".into());
            }
        }
        out.nests += 1;
    }
    if p.input.multi {
        match timed(out, tr, "scratchpad", "core.scratchpad", || {
            s.scratchpad(&p.program)
        }) {
            Ok(Ok((gov, plan))) => {
                out.stats.salvages += gov
                    .per_nest
                    .iter()
                    .filter_map(|t| t.as_ref().err()?.bounds())
                    .filter(|b| b.method == BoundsMethod::SalvagedPrefix)
                    .count() as u64;
                out.stats.session_certs +=
                    certify_governed_scratchpad(&gov).len() as u64 + u64::from(plan.is_some());
                if let Some(plan) = &plan {
                    out.stats.fusion_steps += plan.steps.len() as u64;
                }
                digest.push(format!("scratchpad {}", bounds_digest(&gov.words)))
            }
            Ok(Err(e)) => digest.push(format!("scratchpad {}", error_digest(&e))),
            Err(e) => {
                out.failures
                    .push(format!("{}: scratchpad panicked: {e}", p.input.name));
                digest.push("scratchpad panicked".into());
            }
        }
    }
    out.answers.push(digest.join("; "));
}

/// Untimed pass with a `CollectingSink` attached and certification on:
/// the library's own counters, reconciled against the chain's counts.
pub struct Collected {
    pub counters: loopmem::obs::TraceCounters,
    pub wall_s: f64,
    pub mismatches: Vec<String>,
}

/// The first quarter of the inputs: enough to reconcile the counters,
/// without a traced run of the whole workload (tracing pins the dense
/// engine's chunk grid, which makes small sweeps many times slower).
pub fn collect_share(inputs: &[Parsed]) -> &[Parsed] {
    &inputs[..inputs.len().div_ceil(4)]
}

pub fn collect(w: Workload, inputs: &[Parsed], session: &Session) -> Collected {
    let inputs = collect_share(inputs);
    let sink = Arc::new(CollectingSink::new());
    let traced = session
        .clone()
        .trace(sink.clone() as Arc<dyn TraceSink>)
        .certify(true);
    let mut tracer = Tracer::new(false);
    let out = chain(w, inputs, &traced, &mut tracer, false);
    let c = sink.drain().counters;
    let mut mismatches = Vec::new();
    let mut expect = |name: &str, got: u64, want: u64| {
        if got != want {
            mismatches.push(format!(
                "obs.{name}: trace counts {got}, benchmark counts {want}"
            ));
        }
    };
    expect("certificates", c.certificates, out.stats.session_certs);
    expect("fusion_steps", c.fusion_steps, out.stats.fusion_steps);
    expect("salvages", c.salvages, out.stats.salvages);
    Collected {
        counters: c,
        wall_s: out.wall_s,
        mismatches,
    }
}

/// `(alpha, extents)` for a branch-and-bound run on a 2-deep nest, the
/// way `loopmem verify` derives them; `None` when the nest does not fit.
fn bnb_args(nest: &LoopNest) -> Option<((i64, i64), (i64, i64))> {
    if nest.depth() != 2 {
        return None;
    }
    let vr = nest.var_ranges()?;
    let extents = (vr[0].1 - vr[0].0 + 1, vr[1].1 - vr[1].0 + 1);
    if extents.0 <= 1 || extents.1 <= 1 {
        return None;
    }
    let alpha = nest
        .refs()
        .find_map(|r| {
            let row = r.matrix.rows_iter().next()?;
            (row.len() == 2 && (row[0] != 0 || row[1] != 0)).then(|| (row[0], row[1]))
        })
        .unwrap_or((1, 0));
    Some((alpha, extents))
}

/// Per-layer ledger of one traced pass: `(metric, value)` pairs.
pub type Ledger = Vec<(String, f64)>;

/// Nests whose whole space the ledger may sweep without a budget.
const LEDGER_MAX_VOLUME: u64 = 20_000_000;

/// The traced run: the workload's chain under spans, then the ledger
/// probes. Layers the workload's chain does not reach are measured on
/// probe inputs of the workload that does reach them, drawn from the same
/// seed. Returns the ledger and the chain's untraced-comparable wall time.
pub fn traced(
    w: Workload,
    seed: u64,
    inputs: &[Parsed],
    session: &Session,
    nproc: usize,
    tracer: &mut Tracer,
) -> Result<(Ledger, PassOut), String> {
    let mut led: Ledger = Vec::new();
    let own_mark = tracer.mark();
    let own = chain(w, inputs, session, tracer, true);
    // A probe chain for workload `pw`, unless `pw` is this workload:
    // returns its inputs, its counts, and where its spans start.
    let probe = |pw: Workload, tracer: &mut Tracer| -> Result<_, String> {
        if pw == w {
            return Ok((None, own.stats.clone(), own_mark));
        }
        let pin = parse_all(pw.inputs(seed, true)?)?;
        let mark = tracer.mark();
        let out = chain(pw, &pin, session, tracer, true);
        Ok((Some(pin), out.stats, mark))
    };

    // Parse, lint, dependence, cone and dense-engine layers: own nests.
    nest_ledger(&mut led, inputs, session, nproc, tracer);
    let fam_inputs = if inputs.iter().any(|p| p.input.family.is_some()) {
        None
    } else {
        Some(parse_all(Workload::Sweep.inputs(seed, true)?)?)
    };
    family_ledger(
        &mut led,
        fam_inputs.as_deref().unwrap_or(inputs),
        nproc,
        tracer,
    );

    let (pin, stats, mark) = probe(Workload::Search, tracer)?;
    search_ledger(
        &mut led,
        &stats,
        pin.as_deref().unwrap_or(inputs),
        tracer,
        mark,
    );
    let (pin, _, mark) = probe(Workload::Program, tracer)?;
    program_ledger(
        &mut led,
        pin.as_deref().unwrap_or(inputs),
        session,
        tracer,
        mark,
    )?;
    let (pin, _, mark) = probe(Workload::Governed, tracer)?;
    governed_ledger(
        &mut led,
        pin.as_deref().unwrap_or(inputs),
        session,
        tracer,
        mark,
    );

    for (layer, ms) in tracer.self_ms_by_layer() {
        led.push((format!("{layer}.self_ms"), ms));
    }
    Ok((led, own))
}

fn nest_ledger(
    led: &mut Ledger,
    inputs: &[Parsed],
    session: &Session,
    nproc: usize,
    tr: &mut Tracer,
) {
    let opts = loopmem::analyze::CheckOptions::default();
    let mark = tr.mark();
    let one = session.clone().threads(1);
    let mut bytes = 0usize;
    let (mut p1n, mut p11, mut simn, mut sim1) = (0.0, 0.0, 0.0, 0.0);
    // `loopmem_dep::analyze` does not finish on
    // `tests/robustness/near_max_bounds.loop`: the ungoverned layers see
    // only well-formed inputs.
    for (idx, p) in inputs
        .iter()
        .enumerate()
        .filter(|(_, p)| !p.input.adversarial)
    {
        tr.set_input(idx as u32);
        bytes += p.input.source.len();
        tr.span("ir.parse", |_| {
            loopmem::ir::parse_program(&p.input.source).ok()
        });
        tr.span("analyze.check", |_| {
            guarded(|| loopmem::analyze::check_source(&p.input.source, &opts).ok()).ok()
        });
        for nest in p.nests() {
            let deps = tr.span("dep.analyze", |_| {
                guarded(|| loopmem::dep::analyze(nest)).ok()
            });
            if let Some(deps) = deps {
                tr.span("dep.cone", |_| {
                    guarded(|| loopmem::dep::tileable_row_rank(&deps, nest.depth(), 2)).ok()
                });
            }
            let vol = guarded(|| loopmem::sim::count_iterations(nest)).unwrap_or(0);
            if vol == 0 || vol > LEDGER_MAX_VOLUME {
                continue;
            }
            // Pass 1 alone (chunk merge included), at nproc and at 1
            // thread, then the full simulation at both.
            let t = Instant::now();
            if tr
                .span("sim.pass1", |_| {
                    guarded(|| loopmem::sim::bench_pass1(nest, nproc))
                })
                .is_err()
            {
                continue;
            }
            p1n += t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            tr.span("sim.pass1_1t", |_| loopmem::sim::bench_pass1(nest, 1));
            p11 += t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            tr.span("sim.simulate_nt", |_| session.simulate(nest).ok());
            simn += t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            tr.span("sim.simulate_1t", |_| one.simulate(nest).ok());
            sim1 += t.elapsed().as_secs_f64() * 1e3;
        }
    }
    let parse_ms = tr.total_ms(mark, "ir.parse");
    led.push(("ir.parse_ms".into(), parse_ms));
    led.push((
        "ir.parse_mb_per_s".into(),
        bytes as f64 / 1e6 / (parse_ms / 1e3),
    ));
    led.push((
        "analyze.check_ms".into(),
        tr.total_ms(mark, "analyze.check"),
    ));
    led.push(("dep.analyze_ms".into(), tr.total_ms(mark, "dep.analyze")));
    led.push(("dep.cone_ms".into(), tr.total_ms(mark, "dep.cone")));
    led.push(("sim.pass1_ms".into(), p1n));
    led.push(("sim.pass1_1t_ms".into(), p11));
    if nproc > 1 {
        led.push(("sim.pass1_scaling".into(), p11 / p1n));
        led.push(("sim.simulate_scaling".into(), sim1 / simn));
    }
    led.push(("sim.pass2_ms".into(), simn - p1n));
}

fn family_ledger(led: &mut Ledger, inputs: &[Parsed], nproc: usize, tr: &mut Tracer) {
    for fam in FAMILIES {
        let (mut iters, mut secs) = (0u64, 0.0);
        for p in inputs.iter().filter(|p| p.input.family == Some(fam)) {
            let nest = &p.nests()[0];
            let t = Instant::now();
            iters += tr.span("sim.pass1_family", |_| {
                loopmem::sim::bench_pass1(nest, nproc)
            });
            secs += t.elapsed().as_secs_f64();
        }
        led.push((
            format!("sim.pass1.{}_miters_per_s", fam.label()),
            iters as f64 / 1e6 / secs,
        ));
    }
}

fn search_ledger(led: &mut Ledger, stats: &Stats, inputs: &[Parsed], tr: &mut Tracer, mark: usize) {
    let budget = AnalysisBudget::unlimited();
    let (mut explored, mut pruned, mut cone) = (0u64, 0u64, 0u64);
    for (idx, p) in inputs.iter().enumerate() {
        tr.set_input(idx as u32);
        let nest = &p.nests()[0];
        let Some((alpha, extents)) = bnb_args(nest) else {
            continue;
        };
        let deps = loopmem::dep::analyze(nest);
        let r = tr.span("core.bnb", |_| {
            guarded(|| loopmem::core::try_branch_and_bound(alpha, &deps, extents, 6, &budget))
        });
        if let Ok(Ok(Some(r))) = r {
            explored += r.nodes_explored;
            pruned += r.nodes_pruned;
            cone += r.cone_pruned;
        }
    }
    led.push((
        "core.optimize_ms".into(),
        tr.total_ms(mark, "core.optimize"),
    ));
    led.push(("core.bnb_ms".into(), tr.total_ms(mark, "core.bnb")));
    led.push(("core.candidates".into(), stats.candidates as f64));
    led.push(("core.evaluated".into(), stats.evaluated as f64));
    led.push((
        "core.bnb_prune_ratio".into(),
        pruned as f64 / explored.max(1) as f64,
    ));
    led.push(("core.cone_pruned".into(), cone as f64));
    let lookups = stats.memo_hits + stats.memo_misses;
    led.push(("core.memo_lookups".into(), lookups as f64));
    led.push((
        "core.memo_hit_ratio".into(),
        stats.memo_hits as f64 / lookups.max(1) as f64,
    ));
    led.push(("core.cert_ms".into(), tr.total_ms(mark, "core.cert")));
    led.push(("verify.check_ms".into(), tr.total_ms(mark, "verify.check")));
    led.push(("core.certs".into(), stats.certs as f64));
    led.push(("core.cert_bytes".into(), stats.cert_bytes as f64));
    led.push(("verify.violations".into(), stats.violations as f64));
}

fn program_ledger(
    led: &mut Ledger,
    inputs: &[Parsed],
    session: &Session,
    tr: &mut Tracer,
    mark: usize,
) -> Result<(), String> {
    let (mut attempts, mut steps) = (0u64, 0u64);
    for (idx, p) in inputs.iter().enumerate() {
        tr.set_input(idx as u32);
        for nest in p.nests() {
            tr.span("sim.nest_sum", |_| session.simulate(nest).ok());
        }
        tr.span("core.sizing", |_| {
            session.scratchpad_sizing(&p.program).ok()
        });
        // The greedy fusion search, replayed from its public parts so the
        // legality check and the re-sizing are timed apart.
        let (words, n) = tr.span("core.fusion", |tr| {
            let mut current = p.program.clone();
            let mut words = tr
                .span("core.resize", |_| session.scratchpad_sizing(&current).ok())
                .map_or(u64::MAX, |g| g.sizing.words);
            let mut n = 0usize;
            'search: loop {
                for k in 0..current.len().saturating_sub(1) {
                    attempts += 1;
                    let Ok(candidate) = tr.span("core.fuse", |_| loopmem::core::fuse(&current, k))
                    else {
                        continue;
                    };
                    let resized = tr
                        .span("core.resize", |_| {
                            session.scratchpad_sizing(&candidate).ok()
                        })
                        .map_or(u64::MAX, |g| g.sizing.words);
                    if resized < words {
                        words = resized;
                        current = candidate;
                        n += 1;
                        continue 'search;
                    }
                }
                break;
            }
            (words, n)
        });
        steps += n as u64;
        // The replay must land where `Session::scratchpad` did.
        if let Ok((_, Some(plan))) = session.scratchpad(&p.program) {
            if (plan.fused.words, plan.steps.len()) != (words, n) {
                return Err(format!(
                    "{}: replayed fusion search gives {words} words in {n} steps, Session::scratchpad {} in {}",
                    p.input.name,
                    plan.fused.words,
                    plan.steps.len()
                ));
            }
        }
    }
    let program_ms = tr.total_ms(mark, "sim.program");
    let nest_sum_ms = tr.total_ms(mark, "sim.nest_sum");
    led.push(("sim.program_ms".into(), program_ms));
    led.push(("sim.nest_sum_ms".into(), nest_sum_ms));
    led.push(("sim.fold_ms".into(), program_ms - nest_sum_ms));
    led.push(("sim.program_vs_nest_sum".into(), program_ms / nest_sum_ms));
    led.push(("core.sizing_ms".into(), tr.total_ms(mark, "core.sizing")));
    led.push(("core.fuse_ms".into(), tr.total_ms(mark, "core.fuse")));
    led.push(("core.resize_ms".into(), tr.total_ms(mark, "core.resize")));
    led.push(("core.fusion_ms".into(), tr.total_ms(mark, "core.fusion")));
    led.push(("core.fusion_attempts".into(), attempts as f64));
    led.push(("core.fusion_steps".into(), steps as f64));
    led.push((
        "core.optimize_program_ms".into(),
        tr.total_ms(mark, "core.optimize_program"),
    ));
    led.push((
        "core.scratchpad_ms".into(),
        tr.total_ms(mark, "core.scratchpad"),
    ));
    Ok(())
}

fn governed_ledger(
    led: &mut Ledger,
    inputs: &[Parsed],
    session: &Session,
    tr: &mut Tracer,
    mark: usize,
) {
    let (mut gov_ms, mut cap_ms) = (0.0, 0.0);
    let (mut lower, mut upper, mut exact) = (0u64, 0u64, 0u64);
    let one = session.clone().threads(1);
    for (idx, p) in inputs.iter().enumerate() {
        tr.set_input(idx as u32);
        let Some(nest) = p.nests().first() else {
            continue;
        };
        if let (Some(cap), Some(twin)) = (p.input.cap, &p.input.cap_twin) {
            let s = capped(session, cap);
            let t = Instant::now();
            let r = tr.span("sim.governed_ledger", |_| s.simulate(nest));
            gov_ms += t.elapsed().as_secs_f64() * 1e3;
            let Ok(twin) = loopmem::ir::parse(twin) else {
                continue;
            };
            let t = Instant::now();
            tr.span("sim.cap_sweep", |_| session.simulate(&twin).ok());
            cap_ms += t.elapsed().as_secs_f64() * 1e3;
            let full = tr.span("sim.unlimited", |_| session.simulate(nest).ok());
            if let Some(full) = full {
                let b = match r {
                    Ok(sim) => Bounds::exact(sim.mws_total),
                    Err(e) => e.bounds().unwrap_or(Bounds::exact(0)),
                };
                lower += b.lower;
                upper += b.upper;
                exact += full.mws_total;
            }
        } else if p.input.name.starts_with("huge_iteration_space") {
            // The pathological stencil, governed at 1 thread and at nproc.
            let cap = p.input.cap.unwrap_or(gen::PATHOLOGICAL_CAP);
            tr.span("sim.pathological_nt", |_| {
                capped(session, cap).simulate(nest).ok()
            });
            tr.span("sim.pathological_1t", |_| {
                capped(&one, cap).simulate(nest).ok()
            });
        }
    }
    led.push(("sim.governed_ms".into(), gov_ms));
    led.push(("sim.cap_sweep_ms".into(), cap_ms));
    led.push(("sim.governed_overrun".into(), gov_ms / cap_ms));
    led.push((
        "sim.salvage_ratio".into(),
        lower as f64 / exact.max(1) as f64,
    ));
    led.push((
        "sim.bound_slack".into(),
        (upper - lower) as f64 / exact.max(1) as f64,
    ));
    let nt = tr.total_ms(mark, "sim.pathological_nt");
    let t1 = tr.total_ms(mark, "sim.pathological_1t");
    if nt > 0.0 {
        led.push(("sim.pathological_ms".into(), nt));
        led.push(("sim.pathological_1t_ms".into(), t1));
    }
}
