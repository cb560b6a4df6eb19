#![forbid(unsafe_code)]
//! `loopmem` — command-line driver for the loop-nest memory analyzer.
//!
//! ```text
//! loopmem analyze  <file.loop>             estimate + exact memory analysis
//! loopmem check    <file.loop>... [--format text|json] [--deny warnings] [--sanitize]
//! loopmem deps     <file.loop>             dependence/reuse report
//! loopmem optimize <file.loop> [--mode M]  search for a window-minimizing T
//! loopmem simulate <file.loop> [--profile] exact window simulation
//! loopmem formulas <file.loop>             symbolic distinct-access formulas
//! loopmem pipeline <file.loop> [--fuse k] [--threads N] [--optimize]
//! loopmem scratchpad <file.loop> [--fuse] [--threads N]
//! loopmem verify   <file.loop> [--emit-cert out] [--cert in] [--format text|json]
//! loopmem chaos    <file.loop>... [--seed N]
//! loopmem trace    <file.loop> [--format text|json] [--out trace.ndjson]
//! loopmem print    <file.loop> [--transform a,b,c,d]
//! ```
//!
//! Modes: `compound` (default), `interchange`, `li-pingali`.
//! `pipeline` analyzes a multi-nest program with the sharded batch engine
//! (`--threads N` pins the worker count; default: available parallelism);
//! `--optimize` additionally runs the batch window-minimizing search over
//! every nest. Kernel files use the DSL documented in
//! `loopmem_ir::parser`.
//!
//! `scratchpad` sizes one shared scratchpad over the whole program
//! (`max_k (MWS_k + live-through_k)`, see `loopmem_core::scratchpad`);
//! bare `--fuse` additionally runs the greedy fusion search and reports
//! the plan.
//!
//! `check` runs the span-aware static lint pass (`loopmem-analyze`) over
//! one or more files: rustc-style caret diagnostics (or NDJSON with
//! `--format json`), exit 1 on any error — and on warnings too under
//! `--deny warnings`. `--sanitize` additionally cross-checks the closed-form
//! estimators against the dense simulator on small nests.
//!
//! `verify` runs the proof-carrying layer end to end: every answer the
//! optimizer would hand the user (per-nest minimization, scratchpad
//! sizing, fusion) is converted into a structured certificate (`loopmem_core::cert`) and
//! replayed by the *independent* checker in `loopmem-verify`, which
//! re-derives each claim from the source program alone. `--emit-cert
//! out.ndjson` writes the certificate stream;
//! `--cert in.ndjson` checks a previously emitted stream instead of
//! generating one (so a tampered certificate is rejected). Violations are
//! rendered as `LM7xxx` diagnostics with the same caret machinery as
//! `check`; exit 1 on any violation. The run is governed by default (a
//! cap of 2·10⁶ swept iterations) — a nest too large to simulate
//! degrades to a checkable bounds certificate rather than silence.
//!
//! `chaos` runs the deterministic fault-injection sweep
//! (`loopmem_core::chaos`) over one or more files: every governed entry
//! point × every injected fault kind × several timings × thread counts
//! 1/2/4, checking that nothing panics, every returned interval contains
//! the fault-free exact answer, and the same logical fault point gives
//! bit-identical results and canonical trace bytes for every thread
//! count. Exit 1 on any oracle violation; `ci.sh chaos` runs it over
//! the kernels and the robustness corpus.
//!
//! Every analysis run is *governed*: it never crashes, and when a budget
//! trips or a nest cannot be simulated the analysis degrades to
//! guaranteed analytical bounds (`outcome : bounded`) or a typed failure
//! instead of an exact answer; the process still exits 0 because a
//! degraded answer is a result, not an error. `simulate`, `optimize`,
//! `pipeline` and `scratchpad` accept resource budgets: `--timeout-ms N`
//! caps wall-clock time, `--max-iters N` caps swept iterations (the
//! budget is unlimited without them). Budget flags also make an exact run
//! print its `outcome` line and the governed per-nest report.
//!
//! `trace` runs the whole governed surface in two stages (program
//! simulation with scratchpad sizing + fusion, then the per-nest §4
//! searches with their row-search events; certificate events in both)
//! under `verify`'s default budget, with a collecting `loopmem-obs` sink
//! attached, and renders the deterministic trace: per-phase totals with `--format text` (default), the canonical
//! NDJSON stream with `--format json`; `--out trace.ndjson` writes the
//! NDJSON to a file either way. The NDJSON bytes are bit-identical for
//! every `--threads` value.
//! `pipeline`, `scratchpad`, `chaos`, and `verify` accept `--trace
//! out.ndjson` to capture the same stream for their own runs (on
//! `pipeline`/`scratchpad` it also selects the governed report; on
//! `chaos` it captures the fault-free traced baseline of each file).

use loopmem::analyze::{check_source, CheckOptions, Diagnostic, Severity};
use loopmem::core::{analyze_memory, apply_transform, SearchMode};
use loopmem::dep::analyze;
use loopmem::ir::{parse, print_nest, AnalysisError, Bounds, LoopNest, Program};
use loopmem::linalg::IMat;
use loopmem::obs::{CollectingSink, TraceSink};
use loopmem::sim::{AnalysisBudget, ScratchpadModel};
use loopmem::Session;
use std::process::ExitCode;
use std::sync::Arc;

/// Set by the analysis subcommands: governed runs contain panics with
/// `catch_unwind` and report them as per-nest outcomes, so the panic hook
/// must not splatter the already-reported message on stderr.
static GOVERNED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// The iteration cap of the runs `verify`, `trace` and `chaos --trace`
/// make when no budget flag is given: an iteration cap rather than a
/// timeout, so whether a run is exact or bounded does not depend on the
/// machine. The checker replays fusion legality up to the same count per
/// nest, so every fusion step `verify` emits by default can be replayed.
const DEFAULT_MAX_ITERS: u64 = 2_000_000;

fn main() -> ExitCode {
    // Dying on a closed pipe (`loopmem ... | head`) is expected CLI
    // behaviour, not a crash: exit quietly instead of panicking.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload().downcast_ref::<String>().cloned();
        if msg.as_deref().is_some_and(|m| m.contains("Broken pipe")) {
            std::process::exit(0);
        }
        if GOVERNED.load(std::sync::atomic::Ordering::Relaxed) {
            return;
        }
        default_hook(info);
    }));
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("loopmem: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  loopmem analyze  <file.loop>
  loopmem check    <file.loop>... [--format text|json] [--deny warnings] [--sanitize]
  loopmem deps     <file.loop>
  loopmem optimize <file.loop> [--mode compound|interchange|li-pingali] [budget]
  loopmem simulate <file.loop> [--profile] [budget]
  loopmem formulas <file.loop>
  loopmem pipeline <file.loop> [--fuse k] [--threads N] [--optimize [--mode M]] [--emit-cert out] [--trace out] [budget]
  loopmem scratchpad <file.loop> [--fuse] [--threads N] [--emit-cert out] [--trace out] [budget]
  loopmem verify   <file.loop> [--emit-cert out] [--cert in] [--format text|json] [--trace out] [budget]
  loopmem chaos    <file.loop>... [--seed N] [--trace out]
  loopmem trace    <file.loop> [--threads N] [--format text|json] [--out trace.ndjson] [budget]
  loopmem print    <file.loop> [--transform a,b,c,d]

budget flags (governed run; degrades to analytical bounds, never crashes):
  --timeout-ms N   wall-clock deadline in milliseconds
  --max-iters N    cap on total swept loop iterations";

/// Flags whose following argument is a value, not a file path.
const VALUE_FLAGS: &[&str] = &[
    "--mode",
    "--transform",
    "--threads",
    "--fuse",
    "--timeout-ms",
    "--max-iters",
    "--format",
    "--deny",
    "--seed",
    "--emit-cert",
    "--cert",
    "--trace",
    "--out",
];

fn run(args: &[String]) -> Result<ExitCode, String> {
    let (cmd, rest) = args.split_first().ok_or("missing subcommand")?;
    if matches!(
        cmd.as_str(),
        "analyze"
            | "simulate"
            | "optimize"
            | "pipeline"
            | "scratchpad"
            | "chaos"
            | "verify"
            | "trace"
    ) {
        GOVERNED.store(true, std::sync::atomic::Ordering::Relaxed);
    }
    if cmd == "check" {
        return cmd_check(rest);
    }
    if cmd == "chaos" {
        return cmd_chaos(rest);
    }
    if cmd == "verify" {
        return cmd_verify(rest);
    }
    if cmd == "trace" {
        return cmd_trace(rest);
    }
    let r = match cmd.as_str() {
        "analyze" => cmd_analyze(&load(rest)?),
        "deps" => cmd_deps(&load(rest)?),
        "optimize" => cmd_optimize(rest),
        "simulate" => cmd_simulate(rest),
        "formulas" => cmd_formulas(&load(rest)?),
        "pipeline" => cmd_pipeline(rest),
        "scratchpad" => cmd_scratchpad(rest),
        "print" => cmd_print(&load(rest)?, parse_transform(rest)?),
        other => Err(format!("unknown subcommand '{other}'")),
    };
    r.map(|()| ExitCode::SUCCESS)
}

/// First argument that is neither a flag nor a flag's value.
fn positional(rest: &[String]) -> Option<&String> {
    positionals(rest).into_iter().next()
}

/// Every argument that is neither a flag nor a flag's value, in order.
fn positionals(rest: &[String]) -> Vec<&String> {
    positionals_with(rest, VALUE_FLAGS)
}

/// [`positionals`] with an explicit value-flag table — commands where a
/// flag's arity differs (`scratchpad`'s bare `--fuse` vs `pipeline`'s
/// `--fuse k`) pass their own.
fn positionals_with<'a>(rest: &'a [String], value_flags: &[&str]) -> Vec<&'a String> {
    let mut out = Vec::new();
    let mut skip_value = false;
    for a in rest {
        if skip_value {
            skip_value = false;
            continue;
        }
        if a.starts_with("--") {
            skip_value = value_flags.contains(&a.as_str());
            continue;
        }
        out.push(a);
    }
    out
}

/// The cross-cutting flags every subcommand understands, parsed by one
/// shared routine so `--threads` (and the rest) accept the same syntax
/// and fail with the same message everywhere.
struct CommonOpts {
    /// `--threads N`, defaulting to available parallelism.
    threads: usize,
    /// `--timeout-ms` / `--max-iters` combined; `None` when neither was
    /// given.
    budget: Option<AnalysisBudget>,
    /// `--trace out.ndjson`: capture the run's deterministic trace.
    trace: Option<String>,
    /// `--emit-cert out.ndjson`: write the certificate stream.
    emit_cert: Option<String>,
    /// `--format json` (default is text).
    json: bool,
}

impl CommonOpts {
    fn parse(rest: &[String]) -> Result<Self, String> {
        let threads = match rest.iter().position(|a| a == "--threads") {
            None => loopmem::sim::thread_count(),
            Some(pos) => rest
                .get(pos + 1)
                .ok_or("--threads needs a positive count")?
                .parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or("--threads needs a positive count")?,
        };
        let mut budget = AnalysisBudget::unlimited();
        let mut any = false;
        if let Some(pos) = rest.iter().position(|a| a == "--timeout-ms") {
            let ms: u64 = rest
                .get(pos + 1)
                .ok_or("--timeout-ms needs a millisecond count")?
                .parse()
                .map_err(|e| format!("--timeout-ms: {e}"))?;
            budget = budget.with_timeout(std::time::Duration::from_millis(ms));
            any = true;
        }
        if let Some(pos) = rest.iter().position(|a| a == "--max-iters") {
            let n: u64 = rest
                .get(pos + 1)
                .ok_or("--max-iters needs an iteration count")?
                .parse()
                .map_err(|e| format!("--max-iters: {e}"))?;
            budget = budget.with_max_iterations(n);
            any = true;
        }
        let trace = Self::path_flag(rest, "--trace")?;
        let emit_cert = Self::path_flag(rest, "--emit-cert")?;
        let json = match rest.iter().position(|a| a == "--format") {
            None => false,
            Some(pos) => match rest.get(pos + 1).map(String::as_str) {
                Some("text") => false,
                Some("json") => true,
                other => return Err(format!("bad --format {other:?} (expected text or json)")),
            },
        };
        Ok(CommonOpts {
            threads,
            budget: any.then_some(budget),
            trace,
            emit_cert,
            json,
        })
    }

    fn path_flag(rest: &[String], flag: &str) -> Result<Option<String>, String> {
        match rest.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(pos) => rest
                .get(pos + 1)
                .cloned()
                .map(Some)
                .ok_or_else(|| format!("{flag} needs an output path")),
        }
    }

    /// The collecting sink backing `--trace`, when requested.
    fn trace_sink(&self) -> Option<Arc<CollectingSink>> {
        self.trace.as_ref().map(|_| Arc::new(CollectingSink::new()))
    }

    /// The session an analysis subcommand runs on: the budget flags'
    /// budget (unlimited without them) carrying `sink`, if any.
    fn session(&self, sink: Option<&Arc<CollectingSink>>) -> Session {
        let budget = self.budget.clone().unwrap_or_default();
        let budget = match sink {
            Some(sink) => budget.with_trace(sink.clone() as Arc<dyn TraceSink>),
            None => budget,
        };
        Session::new().threads(self.threads).budget(budget)
    }

    /// Budget or trace flags ask for the governed report: `outcome` and
    /// per-nest lines even when the run is exact.
    fn governed_report(&self) -> bool {
        self.budget.is_some() || self.trace.is_some()
    }

    /// Drain `sink` and write its NDJSON stream to the `--trace` path.
    fn write_trace(&self, sink: &Arc<CollectingSink>) -> Result<(), String> {
        let Some(path) = &self.trace else {
            return Ok(());
        };
        let report = sink.drain();
        std::fs::write(path, report.render_ndjson()).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "trace             : {} events written to {path}",
            report.events.len()
        );
        Ok(())
    }
}

fn load(rest: &[String]) -> Result<LoopNest, String> {
    let path = positional(rest).ok_or("missing <file.loop> argument")?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&src).map_err(|e| format!("{path}: {e}"))
}

/// Report a governed run that could not finish exactly. A tripped budget or
/// a contained failure is a *result*, not a usage error, so the process
/// exits 0 — callers distinguish outcomes by the `outcome` line.
fn report_governed_failure(e: &AnalysisError) -> Result<(), String> {
    match e {
        AnalysisError::Exhausted { reason, partial } => {
            println!("outcome    : bounded");
            println!("total MWS  : in {partial}");
            println!("detail     : budget exhausted ({reason})");
        }
        AnalysisError::Overflow { .. } => {
            println!("outcome    : overflow");
            println!("detail     : {e}");
        }
        _ => {
            println!("outcome    : failed");
            println!("detail     : {e}");
        }
    }
    Ok(())
}

fn parse_mode(rest: &[String]) -> Result<SearchMode, String> {
    let Some(pos) = rest.iter().position(|a| a == "--mode") else {
        return Ok(SearchMode::default());
    };
    match rest.get(pos + 1).map(String::as_str) {
        Some("compound") => Ok(SearchMode::default()),
        Some("interchange") => Ok(SearchMode::InterchangeReversal),
        Some("li-pingali") => Ok(SearchMode::LiPingali),
        other => Err(format!("bad --mode {other:?}")),
    }
}

fn parse_transform(rest: &[String]) -> Result<Option<IMat>, String> {
    let Some(pos) = rest.iter().position(|a| a == "--transform") else {
        return Ok(None);
    };
    let spec = rest.get(pos + 1).ok_or("--transform needs a,b,c,d")?;
    let nums: Result<Vec<i64>, _> = spec.split(',').map(|s| s.trim().parse()).collect();
    let nums = nums.map_err(|e| format!("--transform: {e}"))?;
    let n = (nums.len() as f64).sqrt() as usize;
    if n * n != nums.len() || n == 0 {
        return Err(format!(
            "--transform needs a square matrix, got {} entries",
            nums.len()
        ));
    }
    let rows: Vec<Vec<i64>> = nums.chunks(n).map(|c| c.to_vec()).collect();
    Ok(Some(IMat::from_rows(&rows)))
}

/// `loopmem check`: span-aware static diagnostics over one or more `.loop`
/// files. Exits 1 when any file fails to parse or reports an error-severity
/// diagnostic; `--deny warnings` also fails the run on warnings. A clean
/// run (hints only, or nothing) exits 0.
fn cmd_check(rest: &[String]) -> Result<ExitCode, String> {
    let json = CommonOpts::parse(rest)?.json;
    let deny_warnings = match rest.iter().position(|a| a == "--deny") {
        None => false,
        Some(pos) => match rest.get(pos + 1).map(String::as_str) {
            Some("warnings") => true,
            other => return Err(format!("bad --deny {other:?} (expected warnings)")),
        },
    };
    let opts = CheckOptions {
        sanitize: rest.iter().any(|a| a == "--sanitize"),
        ..CheckOptions::default()
    };
    let files = positionals(rest);
    if files.is_empty() {
        return Err("missing <file.loop> argument".into());
    }
    let mut failed = false;
    for path in files {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        match check_source(&src, &opts) {
            Err(e) => {
                failed = true;
                // A file that does not parse is reported in-band, with the
                // same span machinery as the lints (code LM0000).
                let d = Diagnostic {
                    code: "LM0000",
                    severity: Severity::Error,
                    message: format!("parse error: {}", e.message),
                    notes: Vec::new(),
                    span: e.span,
                    nest: None,
                };
                if json {
                    println!("{}", d.render_json(&src, Some(path)));
                } else {
                    println!("{}", d.render_text(&src, Some(path)));
                    println!("{path}: 1 error (did not parse)");
                }
            }
            Ok(report) => {
                if report.has_errors() || (deny_warnings && report.has_warnings()) {
                    failed = true;
                }
                if json {
                    print!("{}", report.render_json(&src, Some(path)));
                } else {
                    let text = report.render_text(&src, Some(path));
                    if !text.is_empty() {
                        print!("{text}");
                        println!();
                    }
                    let (e, w, h) = report.counts();
                    println!("{path}: {e} errors, {w} warnings, {h} hints");
                }
            }
        }
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// `loopmem chaos`: deterministic fault-injection sweep over one or more
/// `.loop` files (`loopmem_core::chaos`). Prints one line per file and a
/// `violations : N` summary; exits 1 when any oracle was violated or a
/// file failed to load. Injected panics are contained by the engines, so
/// the panic hook is quieted like any governed run.
fn cmd_chaos(rest: &[String]) -> Result<ExitCode, String> {
    let opts = CommonOpts::parse(rest)?;
    let seed: u64 = match rest.iter().position(|a| a == "--seed") {
        None => 0xC0FFEE,
        Some(pos) => rest
            .get(pos + 1)
            .ok_or("--seed needs an integer")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
    };
    let files = positionals(rest);
    if files.is_empty() {
        return Err("missing <file.loop> argument".into());
    }
    let trace_sink = opts.trace_sink();
    let mut violations = 0usize;
    let mut salvaged = 0usize;
    for path in files {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        if let Some(sink) = &trace_sink {
            // `--trace` captures the fault-free traced baseline of each
            // file — the same stream chaos oracle 6 pins byte-identical
            // across thread counts — one epoch per file.
            let dyn_sink: Arc<dyn TraceSink> = sink.clone();
            dyn_sink.begin_epoch();
            if let Ok(program) = loopmem::ir::parse_program(&src) {
                let budget = AnalysisBudget::unlimited()
                    .with_max_iterations(DEFAULT_MAX_ITERS)
                    .with_trace(dyn_sink.clone());
                let _ = Session::new()
                    .threads(1)
                    .budget(budget)
                    .simulate_program(&program);
            }
        }
        let report = loopmem::core::chaos_source(path, &src, seed).map_err(|e| e.to_string())?;
        println!(
            "{path}: {} cases, {} runs, {} violations, {} salvaged-tighter",
            report.cases,
            report.runs,
            report.violations.len(),
            report.salvaged_tighter
        );
        for v in &report.violations {
            println!("  VIOLATION {v}");
        }
        violations += report.violations.len();
        salvaged += report.salvaged_tighter;
    }
    if let Some(sink) = &trace_sink {
        opts.write_trace(sink)?;
    }
    println!("seed       : {seed}");
    println!("salvaged   : {salvaged}");
    println!("violations : {violations}");
    Ok(if violations == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `loopmem verify`: generate (or load) certificates for every answer the
/// optimizer gives on this program and replay them through the independent
/// checker in `loopmem-verify`. Exit 1 on any `LM7xxx` violation; a
/// degraded answer still yields a checkable bounds certificate, so the
/// robustness corpus verifies rather than timing out.
fn cmd_verify(rest: &[String]) -> Result<ExitCode, String> {
    let opts = CommonOpts::parse(rest)?;
    let json = opts.json;
    let path = positional(rest).ok_or("missing <file.loop> argument")?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let (program, spans) =
        loopmem::ir::parse_program_spanned(&src).map_err(|e| format!("{path}: {e}"))?;
    // Governed by default: a nest too large to simulate within the budget
    // degrades to a bounds certificate instead of hanging the gate.
    let mut budget = opts
        .budget
        .clone()
        .unwrap_or_else(|| AnalysisBudget::unlimited().with_max_iterations(DEFAULT_MAX_ITERS));
    let trace_sink = opts.trace_sink();
    if let Some(sink) = &trace_sink {
        budget = budget.with_trace(sink.clone() as Arc<dyn TraceSink>);
    }
    let certs = match rest.iter().position(|a| a == "--cert") {
        Some(pos) => {
            let cert_path = rest.get(pos + 1).ok_or("--cert needs an input path")?;
            let stream =
                std::fs::read_to_string(cert_path).map_err(|e| format!("{cert_path}: {e}"))?;
            match loopmem::verify::parse_certificates(&stream) {
                Ok(certs) => certs,
                Err((line, why)) => {
                    // A stream that does not parse is itself a violation:
                    // report it with the malformed-certificate code.
                    let d = Diagnostic {
                        code: "LM7007",
                        severity: Severity::Error,
                        message: format!("{cert_path}:{line}: malformed certificate: {why}"),
                        notes: Vec::new(),
                        span: loopmem::ir::Span::point(0),
                        nest: None,
                    };
                    if json {
                        println!("{}", d.render_json(&src, Some(path)));
                    } else {
                        println!("{}", d.render_text(&src, Some(path)));
                        println!("{path}: 0 certificates, 1 violation (stream did not parse)");
                    }
                    return Ok(ExitCode::FAILURE);
                }
            }
        }
        None => generate_certificates(&program, opts.threads, &budget),
    };
    emit_certs(opts.emit_cert.as_deref(), &certs)?;
    if let Some(sink) = &trace_sink {
        // The trace accounts for every certificate this run settled on,
        // loaded or generated.
        let dyn_sink: Arc<dyn TraceSink> = sink.clone();
        dyn_sink.begin_epoch();
        loopmem::core::trace_certificates(&dyn_sink, &certs);
        opts.write_trace(sink)?;
    }
    let violations = loopmem::verify::check_certificates(&program, &certs);
    for v in &violations {
        // Anchor each violation at the loop header of the nest it indicts;
        // program-level certificates point at the top of the file.
        let span = v
            .nest
            .and_then(|k| spans.get(k))
            .map(|s| s.loops.first().copied().unwrap_or(s.nest))
            .unwrap_or_else(|| loopmem::ir::Span::point(0));
        let d = Diagnostic {
            code: v.code,
            severity: Severity::Error,
            message: v.message.clone(),
            notes: v.notes.clone(),
            span,
            nest: v.nest,
        };
        if json {
            println!("{}", d.render_json(&src, Some(path)));
        } else {
            println!("{}", d.render_text(&src, Some(path)));
        }
    }
    if !json {
        println!(
            "{path}: {} certificates, {} violations",
            certs.len(),
            violations.len()
        );
    }
    Ok(if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `loopmem trace`: run the whole governed analysis surface over the
/// program — simulation, scratchpad sizing + fusion, per-nest §4
/// searches with their row searches, certificate emission — with a
/// collecting `loopmem-obs` sink attached, and render the deterministic
/// trace. `--format text` (default) prints per-phase totals; `--format
/// json` prints the canonical NDJSON stream, whose bytes are identical
/// for every `--threads` value; `--out` writes the NDJSON to a file
/// either way.
fn cmd_trace(rest: &[String]) -> Result<ExitCode, String> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let opts = CommonOpts::parse(rest)?;
    let out_path = CommonOpts::path_flag(rest, "--out")?;
    let path = positional(rest).ok_or("missing <file.loop> argument")?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let program = loopmem::ir::parse_program(&src).map_err(|e| format!("{path}: {e}"))?;
    let sink = Arc::new(CollectingSink::new());
    let dyn_sink: Arc<dyn TraceSink> = sink.clone();
    // Governed by default (like `verify`): a robustness-corpus nest trips
    // the iteration cap and degrades instead of hanging the trace.
    let budget = opts
        .budget
        .clone()
        .unwrap_or_else(|| AnalysisBudget::unlimited().with_max_iterations(DEFAULT_MAX_ITERS))
        .with_trace(dyn_sink.clone());
    let session = Session::new()
        .threads(opts.threads)
        .budget(budget)
        .certify(true);

    // Stage 1: governed program simulation + scratchpad sizing + fusion
    // (pass-1/pass-2 spans, polls, chunk commits, sizing terms, fusion
    // steps, certificates).
    dyn_sink.begin_epoch();
    let _ = catch_unwind(AssertUnwindSafe(|| session.scratchpad(&program)));

    // Stage 2: per-nest §4 searches, one epoch each: the search span, its
    // row-search event and its certificates.
    for nest in program.nests() {
        dyn_sink.begin_epoch();
        let _ = catch_unwind(AssertUnwindSafe(|| session.optimize(nest)));
    }

    let report = sink.drain();
    if let Some(out) = &out_path {
        std::fs::write(out, report.render_ndjson()).map_err(|e| format!("{out}: {e}"))?;
        // Stderr, so a piped `--format json` stdout stays pure NDJSON.
        eprintln!("trace: {} events written to {out}", report.events.len());
    }
    if opts.json {
        print!("{}", report.render_ndjson());
    } else {
        print!("{}", report.render_text());
    }
    Ok(ExitCode::SUCCESS)
}

/// Runs the whole governed optimizer surface over `program` and converts
/// every answer into certificates: legality/optimality/exact bounds for
/// each minimized nest (degraded bounds when the budget trips), and
/// sizing/fusion certificates for the shared scratchpad.
fn generate_certificates(
    program: &loopmem::ir::Program,
    threads: usize,
    budget: &AnalysisBudget,
) -> Vec<loopmem::verify::Certificate> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let session = Session::new().threads(threads).budget(budget.clone());
    let mut certs = Vec::new();
    for (k, nest) in program.nests().iter().enumerate() {
        // The robustness corpus deliberately overflows ungoverned
        // arithmetic; like the chaos harness, contain the panic and
        // degrade to a bounds certificate rather than crash.
        let nest_certs = catch_unwind(AssertUnwindSafe(|| match session.optimize(nest) {
            Ok(opt) => loopmem::core::certify_optimization(k, nest, &opt),
            Err(e) => vec![loopmem::core::certify_degraded(k, nest, &e)],
        }))
        .or_else(|_| {
            catch_unwind(AssertUnwindSafe(|| {
                let b = loopmem::sim::analytic_nest_bounds(nest);
                vec![loopmem::core::certify_bounds(
                    Some(k),
                    "nest-mws",
                    &b,
                    "analysis panicked; analytic enclosure",
                )]
            }))
        })
        .unwrap_or_else(|_| {
            // Even the analytic ladder panicked: the vacuous enclosure is
            // still a sound, checkable claim.
            vec![loopmem::core::certify_bounds(
                Some(k),
                "nest-mws",
                &Bounds {
                    lower: 0,
                    upper: u64::MAX,
                    method: loopmem::ir::BoundsMethod::UnionBox,
                },
                "analysis panicked; vacuous enclosure",
            )]
        });
        certs.extend(nest_certs);
    }
    let scratchpad = catch_unwind(AssertUnwindSafe(|| match session.scratchpad(program) {
        Ok((gov, plan)) => {
            let mut out = loopmem::core::certify_governed_scratchpad(&gov);
            out.extend(plan.as_ref().map(loopmem::core::certify_fusion));
            out
        }
        // A whole-program scratchpad failure is already visible
        // through the per-nest degraded certificates above.
        Err(_) => Vec::new(),
    }))
    .unwrap_or_default();
    certs.extend(scratchpad);
    certs
}

/// Honors `--emit-cert out.ndjson`: writes one certificate per line in the
/// deterministic wire format. A no-op when the flag is absent.
fn emit_certs(path: Option<&str>, certs: &[loopmem::verify::Certificate]) -> Result<(), String> {
    let Some(path) = path else {
        return Ok(());
    };
    let mut out = String::new();
    for c in certs {
        out.push_str(&c.to_json_line());
        out.push('\n');
    }
    std::fs::write(path, out).map_err(|e| format!("{path}: {e}"))?;
    println!("certificates      : {} written to {path}", certs.len());
    Ok(())
}

fn cmd_analyze(nest: &LoopNest) -> Result<(), String> {
    let m = match analyze_memory(nest) {
        Ok(m) => m,
        Err(e) => return report_governed_failure(&e),
    };
    println!("declared storage : {} words", m.default_words);
    println!("distinct touched : {} words", m.distinct_exact_total);
    println!("exact MWS        : {} words", m.mws_exact);
    if let Some(est) = loopmem::core::estimate_nest_mws(nest) {
        println!("MWS closed form  : {est} words (paper formulas; estimate)");
    }
    println!();
    println!(
        "{:<12} {:>9} {:>16} {:>8}  method",
        "array", "declared", "distinct", "MWS"
    );
    let mut ids: Vec<_> = m.distinct.keys().copied().collect();
    ids.sort();
    for id in ids {
        let est = m.distinct[&id];
        let decl = nest.array(id);
        let distinct = if est.is_exact() {
            format!("{}", est.lower)
        } else {
            format!("[{}, {}]", est.lower, est.upper)
        };
        let mws = m.mws_per_array.get(&id).copied().unwrap_or(0);
        println!(
            "{:<12} {:>9} {:>16} {:>8}  {:?}",
            decl.name,
            decl.size(),
            distinct,
            mws,
            est.method
        );
    }
    let model = ScratchpadModel::new();
    println!();
    println!(
        "scratchpad sized to declared arrays: {}",
        model.report(m.default_words.max(1) as u64)
    );
    println!(
        "scratchpad sized to exact MWS      : {}",
        model.report(m.mws_exact.max(1))
    );
    Ok(())
}

fn cmd_deps(nest: &LoopNest) -> Result<(), String> {
    let deps = analyze(nest);
    println!(
        "{} dependences, {} non-uniform pairs",
        deps.len(),
        deps.nonuniform_pair_count()
    );
    for d in deps.iter() {
        let endpoints = format!("S{}#{} to S{}#{}", d.src.0, d.src.1, d.dst.0, d.dst.1);
        println!(
            "  {:<22} {:<7} level {}  {} -> {}",
            format!("{:?}", d.distance),
            d.kind.to_string(),
            d.level(),
            nest.array(d.array).name,
            endpoints,
        );
    }
    println!("\nreuse vectors (null spaces):");
    for (id, v) in loopmem::dep::reuse_vectors(nest) {
        println!("  {:<8} {:?}", nest.array(id).name, v);
    }
    // Direction vectors for non-uniformly generated pairs (rectangular
    // nests only).
    if deps.nonuniform_pair_count() > 0 && nest.is_rectangular() {
        println!("\ndirection vectors (non-uniform pairs):");
        let refs: Vec<_> = nest.refs().collect();
        for (i, a) in refs.iter().enumerate() {
            for b in &refs[i + 1..] {
                if a.array == b.array && !a.uniformly_generated_with(b) {
                    match loopmem::dep::direction_vector(nest, a, b) {
                        Some(dv) => println!("  {:<8} {}", nest.array(a.array).name, dv),
                        None => println!("  {:<8} independent", nest.array(a.array).name),
                    }
                }
            }
        }
    }
    Ok(())
}

fn cmd_optimize(rest: &[String]) -> Result<(), String> {
    let nest = load(rest)?;
    let mode = parse_mode(rest)?;
    let opts = CommonOpts::parse(rest)?;
    let opt = match opts.session(None).search_mode(mode).optimize(&nest) {
        Ok(opt) => opt,
        // Without budget flags an empty search space is a usage error.
        Err(AnalysisError::Invalid { message }) if opts.budget.is_none() => return Err(message),
        Err(e) => return report_governed_failure(&e),
    };
    if opts.budget.is_some() {
        println!("outcome    : exact");
    }
    println!(
        "MWS {} -> {}  ({} candidates considered)",
        opt.mws_before, opt.mws_after, opt.candidates_considered
    );
    println!("\nT =\n{}", opt.transform);
    println!("\n{}", print_nest(&opt.transformed));
    Ok(())
}

fn cmd_simulate(rest: &[String]) -> Result<(), String> {
    let nest = load(rest)?;
    let profile = rest.iter().any(|a| a == "--profile");
    let opts = CommonOpts::parse(rest)?;
    // `--profile` needs the window profile, which `Session::simulate`
    // does not record.
    let budget = opts.budget.clone().unwrap_or_default();
    let s = match loopmem::sim::try_simulate_with_threads(&nest, profile, opts.threads, &budget) {
        Ok(s) => s,
        Err(e) => return report_governed_failure(&e),
    };
    if opts.budget.is_some() {
        println!("outcome    : exact");
    }
    println!("iterations : {}", s.iterations);
    println!("total MWS  : {}", s.mws_total);
    println!(
        "{:<12} {:>10} {:>10} {:>8}",
        "array", "accesses", "distinct", "MWS"
    );
    let mut ids: Vec<_> = s.per_array.keys().copied().collect();
    ids.sort();
    for id in ids {
        let st = &s.per_array[&id];
        println!(
            "{:<12} {:>10} {:>10} {:>8}",
            nest.array(id).name,
            st.accesses,
            st.distinct,
            st.mws
        );
    }
    if let Some(p) = s.profile {
        println!("\nwindow profile (live words after each iteration, downsampled):");
        let step = (p.len() / 24).max(1);
        for (t, w) in p.iter().enumerate().step_by(step) {
            let bar = "#".repeat(((*w as usize) * 50 / (s.mws_total.max(1) as usize)).min(50));
            println!("  t={t:>7}  {bar:<50} {w}");
        }
    }
    Ok(())
}

fn cmd_formulas(nest: &LoopNest) -> Result<(), String> {
    let formulas = loopmem::core::distinct_formulas(nest);
    if formulas.is_empty() {
        println!("no closed-form distinct-access formula applies (bounds/enumeration cases)");
        return Ok(());
    }
    println!(
        "distinct-access formulas over the loop extents N1..N{}:",
        nest.depth()
    );
    let mut ids: Vec<_> = formulas.keys().copied().collect();
    ids.sort();
    for id in ids {
        let est = &formulas[&id];
        println!(
            "  A_d({}) = {}    [{:?}]",
            nest.array(id).name,
            est.formula,
            est.method
        );
    }
    if let Some(values) = loopmem::core::symbolic::extent_values(nest) {
        let mut pairs: Vec<_> = values.iter().collect();
        pairs.sort();
        let shown: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("  at this nest's sizes ({}):", shown.join(", "));
        let mut ids: Vec<_> = formulas.keys().copied().collect();
        ids.sort();
        for id in ids {
            println!(
                "    {} -> {}",
                nest.array(id).name,
                formulas[&id].formula.eval(&values)
            );
        }
    }
    Ok(())
}

fn cmd_pipeline(rest: &[String]) -> Result<(), String> {
    let opts = CommonOpts::parse(rest)?;
    let path = positional(rest).ok_or("missing <file.loop> argument")?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut program = loopmem::ir::parse_program(&src).map_err(|e| format!("{path}: {e}"))?;
    if let Some(pos) = rest.iter().position(|a| a == "--fuse") {
        let k: usize = rest
            .get(pos + 1)
            .ok_or("--fuse needs a nest index")?
            .parse()
            .map_err(|e| format!("--fuse: {e}"))?;
        program = loopmem::core::fuse(&program, k).map_err(|e| e.to_string())?;
        println!("fused nests {k} and {}:", k + 1);
        println!("{}", loopmem::ir::print_program(&program));
    }
    let trace_sink = opts.trace_sink();
    pipeline_report(&program, &opts.session(trace_sink.as_ref()), &opts, rest)?;
    if let Some(sink) = &trace_sink {
        opts.write_trace(sink)?;
    }
    Ok(())
}

/// The pipeline analysis: the sharded program simulation (bit-identical
/// for every worker count), then the batch optimizer under `--optimize`.
/// An exact run without budget or trace flags prints the batch report
/// (peak nest, per-nest table, fusable pairs); otherwise every nest
/// reports an outcome (exact / bounded / failed) and the whole run shares
/// one deadline and one cumulative iteration budget.
fn pipeline_report(
    program: &Program,
    session: &Session,
    opts: &CommonOpts,
    rest: &[String],
) -> Result<(), String> {
    let sim = session.simulate_program(program);
    let governed = opts.governed_report() || !matches!(&sim, Ok(g) if g.all_exact());
    println!(
        "nests             : {} ({} worker threads{})",
        program.len(),
        opts.threads,
        if governed { ", governed" } else { "" }
    );
    println!("declared storage  : {} words", program.default_memory());
    let gov = match sim {
        Ok(gov) => gov,
        Err(e) => return report_governed_failure(&e),
    };
    let mut certs = Vec::new();
    if governed {
        if gov.mws_bounds.is_exact() {
            println!("outcome           : exact");
            println!("whole-program MWS : {} words", gov.mws_bounds.lower);
        } else {
            println!("outcome           : bounded");
            println!("whole-program MWS : in {}", gov.mws_bounds);
        }
        for (k, r) in gov.per_nest.iter().enumerate() {
            match r {
                Ok(iters) => {
                    println!("  nest{k} : exact ({iters} iterations)");
                    certs.push(loopmem::core::certify_bounds(
                        Some(k),
                        "nest-mws",
                        &Bounds::exact(gov.sim.per_nest_mws[k]),
                        "exact simulation (governed pipeline)",
                    ));
                }
                Err(e) => {
                    match e {
                        AnalysisError::Exhausted { reason, partial } => {
                            println!("  nest{k} : bounded {partial}; budget exhausted ({reason})");
                        }
                        AnalysisError::Overflow { .. } => println!("  nest{k} : overflow; {e}"),
                        _ => println!("  nest{k} : failed; {e}"),
                    }
                    certs.push(loopmem::core::certify_degraded(k, &program.nests()[k], e));
                }
            }
        }
        emit_certs(opts.emit_cert.as_deref(), &certs)?;
    } else {
        let sim = &gov.sim;
        println!("distinct touched  : {} words", sim.distinct_total());
        println!(
            "whole-program MWS : {} words (peak inside nest {})",
            sim.mws_total, sim.peak_nest
        );
        for (k, live) in sim.boundary_live.iter().enumerate() {
            println!("boundary {}->{}      : {} words live", k, k + 1, live);
        }
        println!("\n{:<7} {:>12} {:>10}", "nest", "iterations", "MWS");
        for (k, &mws) in sim.per_nest_mws.iter().enumerate() {
            certs.push(loopmem::core::certify_bounds(
                Some(k),
                "nest-mws",
                &Bounds::exact(mws),
                "exact simulation (pipeline pass 1)",
            ));
            println!(
                "{:<7} {:>12} {:>10}",
                format!("nest{k}"),
                sim.per_nest_iterations[k],
                mws
            );
        }
        emit_certs(opts.emit_cert.as_deref(), &certs)?;
        // Point out fusable adjacent pairs.
        for k in 0..program.len().saturating_sub(1) {
            match loopmem::core::fuse(program, k) {
                Ok(_) => println!("nests {k}+{}: fusable (try --fuse {k})", k + 1),
                Err(e) => println!("nests {k}+{}: not fusable ({e})", k + 1),
            }
        }
    }
    if rest.iter().any(|a| a == "--optimize") {
        let mode = parse_mode(rest)?;
        println!();
        if let Some(sink) = session.analysis_budget().trace() {
            // A fresh epoch keeps the optimize stage's events ordered
            // after the simulation's in the drained stream.
            sink.begin_epoch();
        }
        let opt = match session.clone().search_mode(mode).optimize_program(program) {
            Ok(opt) => opt,
            Err(e) => return report_governed_failure(&e),
        };
        let show = |b: Bounds| {
            if governed || !b.is_exact() {
                b.to_string()
            } else {
                b.lower.to_string()
            }
        };
        println!(
            "batch optimize    : whole-program MWS {} -> {}",
            show(opt.mws_before),
            show(opt.mws_after)
        );
        for (k, r) in opt.per_nest.iter().enumerate() {
            match r {
                Ok((before, after)) => println!("  nest{k}: single-nest MWS {before} -> {after}"),
                Err(e) => println!("  nest{k}: kept original ({e})"),
            }
        }
    }
    Ok(())
}

/// `loopmem scratchpad`: size one shared scratchpad over the whole
/// program (`loopmem_core::scratchpad`). Bare `--fuse` runs the greedy
/// fusion search. A nest that cannot be sized exactly (a tripped budget,
/// an overflow) degrades the size to an interval (`outcome : bounded`).
fn cmd_scratchpad(rest: &[String]) -> Result<(), String> {
    let opts = CommonOpts::parse(rest)?;
    // `--fuse` is a bare switch here, unlike pipeline's `--fuse k`.
    let value_flags: Vec<&str> = VALUE_FLAGS
        .iter()
        .copied()
        .filter(|f| *f != "--fuse")
        .collect();
    let path = positionals_with(rest, &value_flags)
        .into_iter()
        .next()
        .ok_or("missing <file.loop> argument")?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let program = loopmem::ir::parse_program(&src).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "nests             : {} ({} worker threads)",
        program.len(),
        opts.threads
    );
    println!("declared storage  : {} words", program.default_memory());
    let trace_sink = opts.trace_sink();
    let session = opts.session(trace_sink.as_ref());
    scratchpad_report(
        &program,
        &session,
        &opts,
        rest.iter().any(|a| a == "--fuse"),
    )?;
    if let Some(sink) = &trace_sink {
        opts.write_trace(sink)?;
    }
    Ok(())
}

fn scratchpad_report(
    program: &Program,
    session: &Session,
    opts: &CommonOpts,
    want_fuse: bool,
) -> Result<(), String> {
    let r = if want_fuse {
        session.scratchpad(program)
    } else {
        session.scratchpad_sizing(program).map(|g| (g, None))
    };
    let (gov, plan) = match r {
        Ok(x) => x,
        Err(e) => return report_governed_failure(&e),
    };
    if gov.all_exact() {
        println!("outcome           : exact");
        print_scratchpad_sizing(&gov.sizing);
    } else {
        println!("outcome           : bounded");
        println!(
            "scratchpad        : <= {} words (slack {}; in {})",
            gov.words.upper,
            gov.words.slack(),
            gov.words
        );
        println!("whole-program MWS : >= {} words", gov.sizing.program_mws);
        for (k, r) in gov.per_nest.iter().enumerate() {
            match r {
                Ok(t) => println!(
                    "  nest{k} : mws {} + live-through {} = {}",
                    t.mws,
                    t.live_through,
                    t.words()
                ),
                Err(AnalysisError::Exhausted { reason, partial }) => {
                    println!("  nest{k} : bounded {partial}; budget exhausted ({reason})");
                }
                Err(e @ AnalysisError::Overflow { .. }) => {
                    println!("  nest{k} : overflow; {e}")
                }
                Err(e) => println!("  nest{k} : failed; {e}"),
            }
        }
    }
    if want_fuse {
        match &plan {
            Some(p) => print_scratchpad_plan(p),
            None => println!("fusion            : skipped (baseline not exact)"),
        }
    }
    // An exact run without budget or trace flags certifies the sizing
    // arithmetic alone; the governed report adds the words interval.
    let mut certs = if opts.governed_report() || !gov.all_exact() {
        loopmem::core::certify_governed_scratchpad(&gov)
    } else {
        vec![loopmem::core::certify_sizing(&gov.sizing)]
    };
    certs.extend(plan.as_ref().map(loopmem::core::certify_fusion));
    emit_certs(opts.emit_cert.as_deref(), &certs)
}

fn print_scratchpad_sizing(s: &loopmem::core::ScratchpadSizing) {
    println!(
        "scratchpad        : {} words (peak term in nest {})",
        s.words, s.peak_nest
    );
    println!("whole-program MWS : {} words", s.program_mws);
    for (k, t) in s.per_nest.iter().enumerate() {
        println!(
            "  nest{k} : mws {} + live-through {} = {}",
            t.mws,
            t.live_through,
            t.words()
        );
    }
    for (k, live) in s.boundary_live.iter().enumerate() {
        println!("boundary {}->{}      : {} words live", k, k + 1, live);
    }
}

fn print_scratchpad_plan(p: &loopmem::core::ScratchpadPlan) {
    println!(
        "fusion            : {} accepted, {} -> {} nests",
        p.steps.len(),
        p.unfused.per_nest.len(),
        p.fused.per_nest.len()
    );
    for (i, st) in p.steps.iter().enumerate() {
        println!(
            "  step {} : fuse at boundary {}, {} -> {} words",
            i + 1,
            st.at,
            st.words_before,
            st.words_after
        );
    }
    for (k, g) in p.groups.iter().enumerate() {
        if g.len() > 1 {
            println!("  fused nest{k} = original nests {g:?}");
        }
    }
    println!("scratchpad fused  : {} words", p.fused.words);
}

fn cmd_print(nest: &LoopNest, transform: Option<IMat>) -> Result<(), String> {
    match transform {
        None => print!("{}", print_nest(nest)),
        Some(t) => {
            let out = apply_transform(nest, &t).map_err(|e| e.to_string())?;
            print!("{}", print_nest(&out));
        }
    }
    Ok(())
}
