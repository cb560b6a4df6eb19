//! Pins the answers of removed entry points to what `loopmem::Session`
//! computes.
//!
//! The optimizer entry points that `Session` replaced (`minimize_mws*`,
//! `try_minimize_mws*`, `optimize_program*`, `try_optimize_program*`,
//! `scratchpad_program*`, `scratchpad_with_fusion*`, `try_scratchpad_*`,
//! `analyze_program`) and the simulator entry points removed after them
//! (`simulate`, `simulate_with_profile`, `simulate_with_threads`,
//! `try_simulate`, `simulate_program*`, `try_simulate_program*`) are gone;
//! their recorded answers live in `tests/golden/session_answers.txt`
//! (every kernel file and the three programs below, at t ∈ {1, 2, 4} and
//! the default count, with unlimited and 10⁶-iteration budgets), and each
//! test below recomputes its entry points' lines through `Session` — or,
//! for window profiles, which `Session::simulate` does not return,
//! through `loopmem::sim::try_simulate_with_threads`.

use loopmem::core::chaos::CASE_ITER_CAP;
use loopmem::core::{
    GovernedProgramOptimization, GovernedScratchpad, Optimization, ScratchpadPlan,
    ScratchpadSizing, SearchMode,
};
use loopmem::ir::{parse_program, print_nest, print_program, AnalysisError, Program};
use loopmem::obs::CollectingSink;
use loopmem::sim::{
    thread_count, try_simulate_with_threads, AnalysisBudget, CancelToken, FaultKind, FaultPlan,
    GovernedProgramSim, ProgramSimResult, SimResult,
};
use loopmem::Session;
use std::collections::BTreeMap;
use std::sync::Arc;

const EXAMPLE8: &str = "array X[200]\n\
     for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }";

const THREE_NEST: &str = "array A[24][24]\narray X[200]\n\
     for i = 2 to 24 { for j = 1 to 24 { A[i][j] = A[i-1][j] + A[i][j]; } }\n\
     for i = 1 to 24 { for j = i to 24 { A[i][j] = A[j][i]; } }\n\
     for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }";

const FUSION: &str = "array A[8][8]\narray B[8][8]\narray C[8][8]\n\
     for i = 1 to 8 { for j = 1 to 8 { A[i][j] = B[i][j]; } }\n\
     for i = 1 to 8 { for j = 1 to 8 { C[i][j] = A[i][j] + A[i][j]; } }";

// ------------------------------------------------------- golden answers --

/// One line of the golden file: an answer and the entry points (with the
/// thread counts) that produced it.
struct Golden {
    input: String,
    mode: String,
    budget: String,
    entries: Vec<(String, Vec<String>)>,
    answer: String,
}

fn golden() -> Vec<Golden> {
    let text = include_str!("golden/session_answers.txt");
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let (head, answer) = l.split_once(" | ").expect("golden line has an answer");
            let mut fields = head.split(' ');
            let mut next = || fields.next().expect("golden key field").to_string();
            let (input, mode, budget) = (next(), next(), next());
            let entries = fields
                .map(|e| {
                    let (name, threads) = e.split_once('@').expect("entry@threads");
                    (
                        name.to_string(),
                        threads.split(',').map(String::from).collect(),
                    )
                })
                .collect();
            Golden {
                input,
                mode,
                budget,
                entries,
                answer: answer.to_string(),
            }
        })
        .collect()
}

/// The program named by a golden input (`kernels/<file>` or
/// `session:<name>`, without the `#nest` suffix).
fn golden_program(name: &str) -> Program {
    let src = match name {
        "session:example8" => EXAMPLE8.to_string(),
        "session:three_nest" => THREE_NEST.to_string(),
        "session:fusion" => FUSION.to_string(),
        file => std::fs::read_to_string(format!("{}/{file}", env!("CARGO_MANIFEST_DIR"))).unwrap(),
    };
    parse_program(&src).unwrap()
}

fn golden_budget(g: &Golden) -> AnalysisBudget {
    match g.budget.as_str() {
        "unlimited" => AnalysisBudget::unlimited(),
        "max_iters=1000000" => AnalysisBudget::unlimited().with_max_iterations(1_000_000),
        other => panic!("unknown golden budget {other}"),
    }
}

fn golden_session(g: &Golden, threads: &str, traced: bool) -> Session {
    let mode = match g.mode.as_str() {
        // `-` marks the entry points that take no search mode.
        "compound" | "-" => SearchMode::default(),
        "interchange" => SearchMode::InterchangeReversal,
        "li-pingali" => SearchMode::LiPingali,
        other => panic!("unknown golden mode {other}"),
    };
    let session = Session::new().search_mode(mode).budget(golden_budget(g));
    let session = match threads {
        "auto" => session,
        t => session.threads(t.parse().unwrap()),
    };
    if traced {
        session.trace(Arc::new(CollectingSink::new()))
    } else {
        session
    }
}

fn imat(t: &loopmem::linalg::IMat) -> String {
    format!(
        "{:?}",
        t.rows_iter().map(<[i64]>::to_vec).collect::<Vec<_>>()
    )
}

fn opt_answer(r: Result<Optimization, AnalysisError>) -> String {
    match r {
        Ok(o) => format!(
            "ok before={} after={} T={} considered={} evaluated=[{}] nest={:?}",
            o.mws_before,
            o.mws_after,
            imat(&o.transform),
            o.candidates_considered,
            o.evaluated
                .iter()
                .map(|(t, m)| format!("{}:{m}", imat(t)))
                .collect::<Vec<_>>()
                .join(","),
            print_nest(&o.transformed)
        ),
        Err(e) => format!("err {e:?}"),
    }
}

fn program_opt_answer(r: Result<GovernedProgramOptimization, AnalysisError>) -> String {
    match r {
        Ok(o) => format!(
            "ok before={:?} after={:?} per_nest={:?} program={:?}",
            o.mws_before,
            o.mws_after,
            o.per_nest,
            print_program(&o.transformed)
        ),
        Err(e) => format!("err {e:?}"),
    }
}

fn sizing_answer(s: &ScratchpadSizing) -> String {
    format!("ok sizing={s:?}")
}

fn governed_sizing_answer(r: Result<GovernedScratchpad, AnalysisError>) -> String {
    match r {
        Ok(g) => format!("ok governed={g:?}"),
        Err(e) => format!("err {e:?}"),
    }
}

fn plan_answer(p: &ScratchpadPlan) -> String {
    format!(
        "plan program={:?} steps={:?} groups={:?} unfused={:?} fused={:?}",
        print_program(&p.program),
        p.steps,
        p.groups,
        p.unfused,
        p.fused
    )
}

/// `analyze_program`'s fields, from the program simulation.
fn analysis_answer(program: &Program, gov: GovernedProgramSim) -> String {
    assert!(gov.all_exact());
    let sim = gov.sim;
    let distinct: BTreeMap<usize, u64> = sim.distinct.iter().map(|(k, v)| (k.0, *v)).collect();
    format!(
        "ok default_words={} mws_exact={} boundary_live={:?} distinct={:?} peak_nest={} per_nest_mws={:?}",
        program.default_memory(),
        sim.mws_total,
        sim.boundary_live,
        distinct,
        sim.peak_nest,
        sim.per_nest_mws
    )
}

fn fnv1a(p: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &x in p {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn sim_answer(r: Result<SimResult, AnalysisError>) -> String {
    match r {
        Ok(s) => {
            let per: BTreeMap<usize, (u64, u64, u64)> = s
                .per_array
                .iter()
                .map(|(k, v)| (k.0, (v.distinct, v.accesses, v.mws)))
                .collect();
            let profile = match &s.profile {
                None => "none".to_string(),
                Some(p) => format!(
                    "len={} sum={} max={} fnv={:016x}",
                    p.len(),
                    p.iter().sum::<u64>(),
                    p.iter().max().copied().unwrap_or(0),
                    fnv1a(p)
                ),
            };
            format!(
                "ok iterations={} mws={} per_array={per:?} profile={profile}",
                s.iterations, s.mws_total
            )
        }
        Err(e) => format!("err {e:?}"),
    }
}

fn program_fields(sim: &ProgramSimResult) -> String {
    let distinct: BTreeMap<usize, u64> = sim.distinct.iter().map(|(k, v)| (k.0, *v)).collect();
    format!(
        "iterations={:?} mws={} boundary_live={:?} peak_nest={} per_nest_mws={:?} live_through={:?} distinct={distinct:?}",
        sim.per_nest_iterations,
        sim.mws_total,
        sim.boundary_live,
        sim.peak_nest,
        sim.per_nest_mws,
        sim.live_through
    )
}

fn governed_program_answer(r: Result<GovernedProgramSim, AnalysisError>) -> String {
    match r {
        Ok(g) => format!(
            "ok per_nest={:?} bounds={:?} {}",
            g.per_nest,
            g.mws_bounds,
            program_fields(&g.sim)
        ),
        Err(e) => format!("err {e:?}"),
    }
}

/// Recomputes `g`'s answer for the removed entry point `entry` at
/// `threads` through `Session` (window profiles through
/// `try_simulate_with_threads`).
fn recompute(g: &Golden, entry: &str, threads: &str) -> String {
    let (name, nest) = match g.input.split_once('#') {
        Some((name, k)) => (name, Some(k.parse::<usize>().unwrap())),
        None => (g.input.as_str(), None),
    };
    let program = golden_program(name);
    let session = golden_session(g, threads, entry.ends_with("_traced"));
    let nest = || &program.nests()[nest.expect("nest input")];
    match entry {
        "simulate" | "simulate_with_threads" | "try_simulate" => {
            sim_answer(session.simulate(nest()))
        }
        "simulate_with_profile" | "simulate_with_threads+profile" => {
            let t = match threads {
                "auto" => thread_count(),
                t => t.parse().unwrap(),
            };
            sim_answer(try_simulate_with_threads(
                nest(),
                true,
                t,
                &golden_budget(g),
            ))
        }
        "simulate_program" | "simulate_program_with_threads" => {
            let gov = session.simulate_program(&program).unwrap();
            assert!(gov.all_exact());
            format!("ok {}", program_fields(&gov.sim))
        }
        "try_simulate_program" | "try_simulate_program_with_threads" => {
            governed_program_answer(session.simulate_program(&program))
        }
        "minimize_mws"
        | "minimize_mws_traced"
        | "minimize_mws_with_threads"
        | "try_minimize_mws"
        | "try_minimize_mws_with_threads" => opt_answer(session.optimize(nest())),
        "optimize_program"
        | "optimize_program_with_threads"
        | "try_optimize_program"
        | "try_optimize_program_with_threads" => {
            program_opt_answer(session.optimize_program(&program))
        }
        "scratchpad_program" | "scratchpad_program_with_threads" => {
            let gov = session.scratchpad_sizing(&program).unwrap();
            assert!(gov.all_exact());
            sizing_answer(&gov.sizing)
        }
        "try_scratchpad_program" | "try_scratchpad_program_with_threads" => {
            governed_sizing_answer(session.scratchpad_sizing(&program))
        }
        "scratchpad_with_fusion" | "scratchpad_with_fusion_traced" => {
            let (_, plan) = session.scratchpad(&program).unwrap();
            plan_answer(&plan.expect("exact baseline runs the fusion search"))
        }
        "try_scratchpad_with_fusion" => match session.scratchpad(&program) {
            Ok((gov, plan)) => format!(
                "ok governed={gov:?} {}",
                plan.as_ref().map_or("plan none".to_string(), plan_answer)
            ),
            Err(e) => format!("err {e:?}"),
        },
        "analyze_program" => analysis_answer(&program, session.simulate_program(&program).unwrap()),
        other => panic!("unknown golden entry point {other}"),
    }
}

/// Recomputes every golden line recorded from one of `entries`.
fn check_golden(entries: &[&str]) {
    let mut checked = 0;
    for g in golden() {
        for (entry, threads) in &g.entries {
            if !entries.contains(&entry.as_str()) {
                continue;
            }
            for t in threads {
                let got = recompute(&g, entry, t);
                assert_eq!(
                    got, g.answer,
                    "{entry}@{t} on {} ({}, {})",
                    g.input, g.mode, g.budget
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 0, "no golden line for {entries:?}");
}

const NEST_SEARCH: [&str; 5] = [
    "minimize_mws",
    "minimize_mws_traced",
    "minimize_mws_with_threads",
    "try_minimize_mws",
    "try_minimize_mws_with_threads",
];
const PROGRAM_SEARCH: [&str; 4] = [
    "optimize_program",
    "optimize_program_with_threads",
    "try_optimize_program",
    "try_optimize_program_with_threads",
];
const SIMULATION: [&str; 9] = [
    "simulate",
    "simulate_with_threads",
    "simulate_with_profile",
    "simulate_with_threads+profile",
    "try_simulate",
    "simulate_program",
    "simulate_program_with_threads",
    "try_simulate_program",
    "try_simulate_program_with_threads",
];
const SIZING: [&str; 8] = [
    "scratchpad_program",
    "scratchpad_program_with_threads",
    "try_scratchpad_program",
    "try_scratchpad_program_with_threads",
    "scratchpad_with_fusion",
    "scratchpad_with_fusion_traced",
    "try_scratchpad_with_fusion",
    "analyze_program",
];

#[test]
fn golden_file_names_only_known_entry_points() {
    let lines = golden();
    assert!(!lines.is_empty());
    for g in lines {
        for (entry, _) in &g.entries {
            let known = NEST_SEARCH
                .iter()
                .chain(&PROGRAM_SEARCH)
                .chain(&SIZING)
                .chain(&SIMULATION)
                .any(|e| e == entry);
            assert!(known, "unknown entry point {entry} on {}", g.input);
        }
    }
}

#[test]
fn wrapper_try_minimize_mws_matches_session() {
    check_golden(&["try_minimize_mws"]);
}

#[test]
fn wrapper_try_minimize_mws_with_threads_matches_session() {
    check_golden(&["try_minimize_mws_with_threads"]);
}

#[test]
fn ungoverned_minimize_mws_matches_default_session_modulo_memo() {
    // The golden projection leaves out the removed memo's hit count.
    check_golden(&[
        "minimize_mws",
        "minimize_mws_traced",
        "minimize_mws_with_threads",
    ]);
}

#[test]
fn wrapper_try_optimize_program_matches_session() {
    check_golden(&["try_optimize_program"]);
}

#[test]
fn wrapper_try_optimize_program_with_threads_matches_session() {
    check_golden(&["try_optimize_program_with_threads"]);
}

#[test]
fn ungoverned_optimize_program_matches_default_session() {
    check_golden(&["optimize_program", "optimize_program_with_threads"]);
}

#[test]
fn wrapper_try_scratchpad_program_matches_session() {
    check_golden(&["try_scratchpad_program"]);
}

#[test]
fn wrapper_try_scratchpad_program_with_threads_matches_session() {
    check_golden(&["try_scratchpad_program_with_threads"]);
}

#[test]
fn ungoverned_scratchpad_program_matches_default_session() {
    check_golden(&["scratchpad_program", "scratchpad_program_with_threads"]);
}

#[test]
fn wrapper_try_scratchpad_with_fusion_matches_session() {
    check_golden(&["try_scratchpad_with_fusion"]);
}

#[test]
fn ungoverned_scratchpad_with_fusion_matches_default_session() {
    check_golden(&["scratchpad_with_fusion", "scratchpad_with_fusion_traced"]);
}

#[test]
fn analyze_program_matches_session_simulate_program() {
    check_golden(&["analyze_program"]);
}

#[test]
fn wrapper_try_simulate_matches_session() {
    check_golden(&["try_simulate"]);
}

#[test]
fn wrapper_try_simulate_with_threads_matches_session() {
    // The profile lines, through the surviving try_simulate_with_threads.
    check_golden(&["simulate_with_profile", "simulate_with_threads+profile"]);
}

#[test]
fn ungoverned_simulate_matches_default_session() {
    check_golden(&["simulate", "simulate_with_threads"]);
}

#[test]
fn wrapper_try_simulate_program_matches_session() {
    check_golden(&["try_simulate_program"]);
}

#[test]
fn wrapper_try_simulate_program_with_threads_matches_session() {
    check_golden(&["try_simulate_program_with_threads"]);
}

#[test]
fn ungoverned_simulate_program_matches_default_session() {
    check_golden(&["simulate_program", "simulate_program_with_threads"]);
}

/// A capped search whose candidates cannot all fit under the iteration
/// cap trips before it sweeps any of them, so its canonical trace is the
/// same at every thread count, odd ones included. Under 2·10⁶ iterations
/// the 500,500-iteration triangle leaves room for only some of its
/// candidates, and which ones finished used to depend on the schedule.
#[test]
fn capped_search_trips_before_sweeping_candidates_it_cannot_finish() {
    let program = parse_program(
        "array A[1001][1001]\narray B[1001][1001]\narray C[1001][1001]\n\
         for i = 1 to 1000 { for j = i to 1000 { A[i][j] = B[j][i] + C[i][j]; } }",
    )
    .unwrap();
    let traced = |threads: usize| {
        let sink = Arc::new(CollectingSink::new());
        let answer = Session::new()
            .threads(threads)
            .budget(AnalysisBudget::unlimited().with_max_iterations(2_000_000))
            .trace(sink.clone())
            .optimize(&program.nests()[0])
            .map(|opt| opt.mws_after);
        (format!("{answer:?}"), sink.drain().render_ndjson())
    };
    let one = traced(1);
    assert!(one.0.contains("MaxIterations"), "{}", one.0);
    for threads in [2, 3, 4] {
        assert_eq!(traced(threads), one, "threads={threads}");
    }
}

/// A traced search under an injected fault: which candidate sweep absorbs
/// the fault depends on the schedule, but candidate sweeps record no
/// events, so the canonical stream is the same at every thread count.
/// These are the chaos matrix's optimize cases (interchange/reversal
/// search, the chaos case budget, a fault at poll 2) whose streams used to
/// differ; each thread count runs twice, since a race shows only in some
/// runs.
#[test]
fn traced_searches_under_faults_are_thread_count_invariant() {
    let sor = golden_program("kernels/sor.loop");
    let pipeline = golden_program("kernels/pipeline.loop");
    for (name, nest, kind) in [
        ("sor", &sor.nests()[0], FaultKind::Exhaust),
        ("sor", &sor.nests()[0], FaultKind::Cancel),
        ("pipeline#0", &pipeline.nests()[0], FaultKind::Overflow),
    ] {
        let traced = |threads: usize| {
            let mut budget = AnalysisBudget::unlimited()
                .with_max_iterations(CASE_ITER_CAP)
                .with_fault_plan(Arc::new(FaultPlan::new(kind, 2, 0)));
            if kind == FaultKind::Cancel {
                budget = budget.with_cancel_token(CancelToken::new());
            }
            let sink = Arc::new(CollectingSink::new());
            let answer = Session::new()
                .threads(threads)
                .search_mode(SearchMode::InterchangeReversal)
                .budget(budget)
                .trace(sink.clone())
                .optimize(nest)
                .map(|opt| opt.mws_after);
            (format!("{answer:?}"), sink.drain().render_ndjson())
        };
        let one = traced(1);
        assert!(one.0.starts_with("Err"), "{name} {kind:?}: {}", one.0);
        assert!(one.1.contains("\"event\":\"fault-trip\""), "{}", one.1);
        for threads in [2, 3, 4, 2, 3, 4] {
            assert_eq!(traced(threads), one, "{name} {kind:?} threads={threads}");
        }
    }
}

/// Under an iteration cap the program optimizer runs its per-nest
/// searches one after another in program order, so which searches fit
/// under the cap does not depend on the schedule. At 9·10⁵ iterations only
/// the first nest's search finishes, at 1.5·10⁶ the first two.
#[test]
fn capped_program_searches_run_in_program_order() {
    let program = parse_program(
        "array A[202][202]\narray B[202][202]\narray C[202][202]\n\
         for i = 2 to 200 { for j = 2 to 200 { A[i][j] = A[i-1][j] + A[i][j-1]; } }\n\
         for i = 2 to 200 { for j = 2 to 200 { B[i][j] = B[i-1][j+1] + A[i][j]; } }\n\
         for i = 2 to 200 { for j = 2 to 200 { C[i][j] = C[i][j-1] + B[i][j]; } }",
    )
    .unwrap();
    for (cap, finished) in [(900_000, 1), (1_500_000, 2)] {
        let traced = |threads: usize| {
            let sink = Arc::new(CollectingSink::new());
            let opt = Session::new()
                .threads(threads)
                .budget(AnalysisBudget::unlimited().with_max_iterations(cap))
                .trace(sink.clone())
                .optimize_program(&program);
            (program_opt_answer(opt), sink.drain().render_ndjson())
        };
        let one = traced(1);
        assert_eq!(
            one.0.matches("Ok((").count(),
            finished,
            "cap {cap}: {}",
            one.0
        );
        for threads in [2, 3, 4] {
            assert_eq!(traced(threads), one, "cap {cap} threads={threads}");
        }
    }
}

/// A nest of 4.9·10⁹ iterations overruns the engine's u32 clock. Pass 1
/// sweeps such a nest whole at every worker count, so every count reports
/// the typed overflow one worker reports, and under a cap below 2³² every
/// count trips and salvages the same prefix.
#[test]
fn nests_past_the_u32_clock_fail_alike_at_every_thread_count() {
    let program =
        parse_program("array X[70001]\nfor i = 1 to 70000 { for j = 1 to 70000 { X[i]; } }")
            .unwrap();
    let nest = &program.nests()[0];
    for budget in [
        AnalysisBudget::unlimited(),
        AnalysisBudget::unlimited().with_max_iterations(1 << 20),
    ] {
        let answer = |threads: usize| {
            let session = Session::new().threads(threads).budget(budget.clone());
            format!("{:?}", session.simulate(nest))
        };
        let one = answer(1);
        assert!(
            one.contains("Overflow") || one.contains("SalvagedPrefix"),
            "{one}"
        );
        for threads in [2, 3, 4] {
            assert_eq!(answer(threads), one, "threads={threads}");
        }
    }
}

/// A time loop around a row stencil: pass 1 splits it on `i` into bands
/// stamped on the nest's clock, so a cap that trips halfway, an injected
/// trip or overflow, and the canonical trace all come out the same at
/// every worker count.
#[test]
fn time_looped_stencil_is_thread_count_invariant() {
    let program = parse_program(
        "array A[403][401]\n\
         for t = 1 to 4 { for i = 3 to 402 { for j = 1 to 400 { A[i][j] = A[i-2][j]; } } }",
    )
    .unwrap();
    let nest = &program.nests()[0];
    let volume = 4 * 400 * 400;
    for threads in [2, 3, 4] {
        assert_eq!(loopmem::sim::sweep_threads(nest, threads), threads);
    }
    // Plans carry fire-once state, so each run builds its own budget.
    let budget = |name: &str| {
        let fault = |kind| {
            let plan = FaultPlan::new(kind, 200, 0);
            AnalysisBudget::unlimited().with_fault_plan(Arc::new(plan))
        };
        match name {
            "half cap" => AnalysisBudget::unlimited().with_max_iterations(volume / 2),
            "exhaust" => fault(FaultKind::Exhaust),
            "overflow" => fault(FaultKind::Overflow),
            _ => AnalysisBudget::unlimited(),
        }
    };
    for name in ["unlimited", "half cap", "exhaust", "overflow"] {
        let traced = |threads: usize| {
            let sink = Arc::new(CollectingSink::new());
            let answer = Session::new()
                .threads(threads)
                .budget(budget(name))
                .trace(sink.clone())
                .simulate(nest);
            (format!("{answer:?}"), sink.drain().render_ndjson())
        };
        let one = traced(1);
        match name {
            "unlimited" => {
                assert!(one.0.starts_with("Ok"), "{}", one.0);
                // Sixteen bands of `i`, where the time loop gave four.
                assert_eq!(one.1.matches("\"event\":\"chunk-commit\"").count(), 16);
            }
            "overflow" => assert!(one.0.contains("Overflow"), "{}", one.0),
            _ => assert!(one.0.contains("SalvagedPrefix"), "{name}: {}", one.0),
        }
        for threads in [2, 3, 4] {
            assert_eq!(traced(threads), one, "{name} threads={threads}");
        }
    }
}
