//! loopbench: the loopmem benchmark. One command runs one workload,
//! checks every answer, and prints each metric by name and unit; the last
//! line of stdout is the JSON result.
//!
//! ```text
//! loopbench --workload sweep|search|program|governed --seed N --seconds S --trace 0|1
//! ```
//!
//! Each timed pass runs in a fresh worker process (this binary again,
//! with `--worker`), so no pass inherits a warm optimizer memo or warm
//! allocator from an earlier one: every pass pays what a user's first
//! call pays. Workers run one at a time, and each pins its `Session` to
//! `nproc` threads. See README.md for the workloads and metrics.

mod flow;
mod gen;
mod span;

use flow::{Parsed, Workload};
use loopmem::Session;
use span::Tracer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    worker: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload = get("--workload").ok_or("missing --workload")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: get("--seed")
            .unwrap_or("1")
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")
            .unwrap_or("10")
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: get("--trace").unwrap_or("0") == "1",
        worker: get("--worker").map(str::to_string),
    })
}

fn main() -> ExitCode {
    let start = Instant::now();
    // Panics inside library calls are caught and counted as failures;
    // keep their default report off the output.
    std::panic::set_hook(Box::new(|_| {}));
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loopbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.worker.clone() {
        Some(mode) => worker(&mode, &args, start),
        None => orchestrate(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("loopbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn session() -> Session {
    Session::new().threads(nproc())
}

/// `<target>/release`, where cargo put this binary and the CLI.
fn bin_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    Ok(exe.parent().ok_or("no binary directory")?.to_path_buf())
}

fn out_dir() -> Result<PathBuf, String> {
    let dir = bin_dir()?
        .parent()
        .ok_or("no target directory")?
        .join("loopbench-out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Peak resident set of this process, in KiB.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

// ---------------------------------------------------------------- worker --

/// One pass in a fresh process. Prints `key value` lines for the parent.
fn worker(mode: &str, args: &Args, start: Instant) -> Result<(), String> {
    let inputs = flow::parse_all(args.workload.inputs(args.seed, false)?)?;
    // Set-up: process start to inputs generated and parsed, then the
    // generate-and-parse step 24 more times; the median of the 25.
    let mut setups = vec![start.elapsed().as_secs_f64()];
    for _ in 0..24 {
        let t = Instant::now();
        std::hint::black_box(flow::parse_all(args.workload.inputs(args.seed, false)?)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    println!("setup {}", median(&setups));
    let session = session();
    match mode {
        "plain" => {
            let out = flow::chain(
                args.workload,
                &inputs,
                &session,
                &mut Tracer::new(false),
                false,
            );
            print_pass(&out);
        }
        "traced" => {
            let mut tracer = Tracer::new(true);
            let (ledger, own) = flow::traced(
                args.workload,
                args.seed,
                &inputs,
                &session,
                nproc(),
                &mut tracer,
            )?;
            print_pass(&own);
            for (k, v) in ledger {
                println!("m {k} {v}");
            }
            let path = out_dir()?.join(format!(
                "spans-{}-{}.ndjson",
                args.workload.label(),
                args.seed
            ));
            std::fs::write(&path, tracer.to_ndjson()).map_err(|e| e.to_string())?;
        }
        "collect" => {
            let c = flow::collect(args.workload, &inputs, &session);
            println!("wall {}", c.wall_s);
            let k = &c.counters;
            for (name, v) in [
                ("polls", k.polls),
                ("chunk_commits", k.chunks_committed),
                ("memo_lookups", k.memo_lookups),
                ("cone_prunes", k.cone_boxes),
                ("fusion_steps", k.fusion_steps),
                ("certificates", k.certificates),
                ("fault_trips", k.fault_trips),
                ("salvages", k.salvages),
            ] {
                println!("m obs.{name} {v}");
            }
            for m in c.mismatches {
                println!("fail {m}");
            }
        }
        _ => return Err(format!("unknown worker mode {mode}")),
    }
    println!("rss_kb {}", peak_rss_kb());
    Ok(())
}

fn print_pass(out: &flow::PassOut) {
    println!("wall {}", out.wall_s);
    println!("attempted {}", out.attempted);
    println!("words {}", out.words);
    println!("iterations {}", out.iterations);
    println!("nests {}", out.nests);
    for (verb, input, ms) in &out.calls {
        println!("call {verb} {input} {ms}");
    }
    for a in &out.answers {
        println!("ans {a}");
    }
    for f in &out.failures {
        println!("fail {f}");
    }
}

/// A worker's report, parsed.
#[derive(Default)]
struct Report {
    setup_s: f64,
    wall_s: f64,
    attempted: u64,
    words: u64,
    iterations: u64,
    nests: u64,
    /// `(input index, milliseconds)` per library call.
    calls: Vec<(usize, f64)>,
    answers: Vec<String>,
    failures: Vec<String>,
    metrics: Vec<(String, f64)>,
    rss_kb: u64,
}

fn run_worker(mode: &str, args: &Args) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--workload",
            args.workload.label(),
            "--seed",
            &args.seed.to_string(),
            "--worker",
            mode,
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("worker: {e}"))?;
    if !out.status.success() {
        return Err(format!("{mode} worker exited with {}", out.status));
    }
    let mut r = Report::default();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        let num = || rest.parse::<f64>().unwrap_or(f64::NAN);
        match key {
            "setup" => r.setup_s = num(),
            "wall" => r.wall_s = num(),
            "attempted" => r.attempted = num() as u64,
            "words" => r.words = num() as u64,
            "iterations" => r.iterations = num() as u64,
            "nests" => r.nests = num() as u64,
            "rss_kb" => r.rss_kb = num() as u64,
            "call" => {
                let f: Vec<&str> = rest.split(' ').collect();
                if let [_, input, ms] = f[..] {
                    r.calls
                        .push((input.parse().unwrap_or(0), ms.parse().unwrap_or(f64::NAN)));
                }
            }
            "ans" => r.answers.push(rest.to_string()),
            "fail" => r.failures.push(rest.to_string()),
            "m" => {
                if let Some((k, v)) = rest.split_once(' ') {
                    r.metrics
                        .push((k.to_string(), v.parse().unwrap_or(f64::NAN)));
                }
            }
            _ => {}
        }
    }
    Ok(r)
}

// ------------------------------------------------------------ statistics --

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank quantile (`q` in (0, 1]); NaN for no samples.
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if q == 0.5 && v.len().is_multiple_of(2) {
        return (v[v.len() / 2 - 1] + v[v.len() / 2]) / 2.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

// ------------------------------------------------------------ orchestrate --

/// Failures and attempts, tallied over everything one run checks.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(why());
        }
    }
}

/// The reference run: answers at 1 thread, checked against independent
/// oracles, plus the words a naive allocation would reserve.
struct Oracle {
    answers: Vec<String>,
    /// Σ distinct elements the inputs touch, over the inputs whose
    /// answer words count toward `words_per_element`.
    distinct: u64,
}

fn oracle(w: Workload, inputs: &[Parsed], tally: &mut Tally) -> Oracle {
    let one = Session::new().threads(1);
    let out = flow::chain(w, inputs, &one, &mut Tracer::new(false), false);
    tally.attempted += out.attempted;
    tally.failures.extend(out.failures.iter().cloned());
    let full = session();
    let mut distinct = 0u64;
    match w {
        Workload::Sweep => {
            // The dense engine against the hashmap reference engine on the
            // smallest nest of each family and on every nest of at most
            // 2·10^5 iterations.
            let smallest = smallest_per_family(inputs);
            for (i, p) in inputs.iter().enumerate() {
                if (smallest.contains(&i) && p.input.volume <= 1_000_000)
                    || p.input.volume <= 200_000
                {
                    let h = loopmem::sim::simulate_hashmap(&p.nests()[0]);
                    let want = format!("{} {} {}", h.mws_total, h.distinct_total(), h.iterations);
                    tally.check(out.answers[i] == want, || {
                        format!(
                            "{}: dense {} != hashmap {want}",
                            p.input.name, out.answers[i]
                        )
                    });
                }
                distinct += out.answers[i]
                    .split(' ')
                    .nth(1)
                    .and_then(|d| d.parse::<u64>().ok())
                    .unwrap_or(0);
            }
        }
        Workload::Search => {
            for p in inputs {
                if let Ok(sim) = one.simulate(&p.nests()[0]) {
                    distinct += sim.distinct_total();
                }
            }
        }
        Workload::Program => {
            for p in inputs {
                if let Ok(sim) = full.simulate_program(&p.program) {
                    distinct += sim.sim.distinct_total();
                }
            }
        }
        Workload::Governed => {
            // Each interval must hold the unlimited exact answer.
            for (i, b) in &out.stats.governed_inputs {
                let p = &inputs[*i];
                match full.simulate(&p.nests()[0]) {
                    Ok(exact) => {
                        distinct += exact.distinct_total();
                        tally.check(b.contains(exact.mws_total), || {
                            format!(
                                "{}: interval {}..{} misses exact {}",
                                p.input.name, b.lower, b.upper, exact.mws_total
                            )
                        });
                    }
                    Err(e) => {
                        tally.check(false, || format!("{}: unlimited run: {e}", p.input.name))
                    }
                }
            }
            // The pathological nest must end as a typed bounded outcome.
            for (i, p) in inputs.iter().enumerate() {
                if p.input.name.starts_with("huge_iteration_space") {
                    tally.check(out.answers[i].starts_with("bounded"), || {
                        format!(
                            "{}: expected a bounded outcome, got {}",
                            p.input.name, out.answers[i]
                        )
                    });
                }
            }
        }
    }
    Oracle {
        answers: out.answers,
        distinct,
    }
}

/// Index of the smallest input of each sweep family.
fn smallest_per_family(inputs: &[Parsed]) -> Vec<usize> {
    let mut best: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, p) in inputs.iter().enumerate() {
        if let Some(f) = p.input.family {
            let e = best.entry(f.label()).or_insert(i);
            if p.input.volume < inputs[*e].input.volume {
                *e = i;
            }
        }
    }
    best.into_values().collect()
}

/// The `loopmem` calls one CLI round makes, as argument lists.
fn cli_calls(w: Workload, inputs: &[Parsed], dir: &Path) -> Result<Vec<Vec<String>>, String> {
    let mut calls = Vec::new();
    let write = |i: usize, p: &Parsed| -> Result<String, String> {
        let path = dir.join(format!("{i:03}.loop"));
        std::fs::write(&path, &p.input.source).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path.to_string_lossy().into_owned())
    };
    let s = |xs: &[&str]| xs.iter().map(|x| x.to_string()).collect::<Vec<_>>();
    match w {
        Workload::Sweep => {
            for i in smallest_per_family(inputs) {
                calls.push(s(&["simulate", &write(i, &inputs[i])?]));
            }
        }
        Workload::Search => {
            for (name, text) in gen::kernel_files()? {
                let f = format!("kernels/{name}");
                let nests = loopmem::ir::parse_program(&text).map_or(1, |p| p.len());
                if nests == 1 {
                    calls.push(s(&["optimize", &f]));
                } else {
                    calls.push(s(&["pipeline", &f, "--optimize"]));
                }
                calls.push(s(&["verify", &f]));
                calls.push(s(&["scratchpad", &f, "--fuse"]));
                calls.push(s(&["check", &f]));
            }
        }
        Workload::Program => {
            for (i, p) in inputs.iter().enumerate() {
                calls.push(s(&["scratchpad", &write(i, p)?, "--fuse"]));
            }
        }
        Workload::Governed => {
            for i in smallest_per_family(inputs) {
                let cap = inputs[i]
                    .input
                    .cap
                    .unwrap_or(gen::PATHOLOGICAL_CAP)
                    .to_string();
                calls.push(s(&[
                    "simulate",
                    &write(i, &inputs[i])?,
                    "--max-iters",
                    &cap,
                ]));
            }
            for p in inputs.iter().filter(|p| p.input.family.is_none()) {
                let f = format!("tests/robustness/{}", p.input.name);
                let cap = gen::PATHOLOGICAL_CAP.to_string();
                calls.push(s(&["scratchpad", &f, "--max-iters", &cap]));
            }
        }
    }
    Ok(calls)
}

/// Spawns one `loopmem` process and waits for it; returns milliseconds.
fn spawn_cli(cli: &Path, argv: &[String]) -> Result<(f64, bool), String> {
    let t = Instant::now();
    let status = Command::new(cli)
        .args(argv)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("{}: {e}", cli.display()))?;
    Ok((t.elapsed().as_secs_f64() * 1e3, status.success()))
}

/// Calls a run pools for its percentiles: ten beyond p90.
const MIN_CALLS: usize = 100;

fn orchestrate(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let nproc = nproc();
    let cli = bin_dir()?.join("loopmem");
    if !cli.exists() {
        return Err(format!(
            "{} is missing: build the loopmem CLI first",
            cli.display()
        ));
    }
    let inputs = flow::parse_all(w.inputs(args.seed, false)?)?;
    let mut tally = Tally::default();
    let oracle = oracle(w, &inputs, &mut tally);

    let input_dir = out_dir()?.join(format!("inputs-{}-{}", w.label(), args.seed));
    std::fs::create_dir_all(&input_dir).map_err(|e| e.to_string())?;
    let cli_round = cli_calls(w, &inputs, &input_dir)?;

    let mut plain: Vec<Report> = Vec::new();
    let mut traced: Vec<Report> = Vec::new();
    let mut collected: Vec<Report> = Vec::new();
    let mut cli_ms: Vec<f64> = Vec::new();
    let mut spawn_ms: Vec<f64> = Vec::new();
    let t0 = Instant::now();
    let enough = |plain: &[Report]| {
        (args.trace || plain.iter().map(|r| r.calls.len()).sum::<usize>() >= MIN_CALLS)
            && t0.elapsed().as_secs_f64() >= args.seconds
    };
    while !enough(&plain) {
        let mut reports = vec![("plain", run_worker("plain", args)?)];
        if args.trace {
            reports.push(("traced", run_worker("traced", args)?));
            reports.push(("collect", run_worker("collect", args)?));
            for _ in 0..5 {
                // Exits at argument parsing: the floor under every CLI call.
                spawn_ms.push(spawn_cli(&cli, &[])?.0);
            }
        }
        for argv in &cli_round {
            let (ms, ok) = spawn_cli(&cli, argv)?;
            tally.check(ok, || format!("loopmem {} failed", argv.join(" ")));
            cli_ms.push(ms);
        }
        for (mode, r) in reports {
            tally.attempted += r.attempted;
            tally.failures.extend(r.failures.iter().cloned());
            if mode != "collect" {
                // Answers at nproc threads must equal the 1-thread oracle.
                tally.check(r.answers == oracle.answers, || {
                    let diff = r
                        .answers
                        .iter()
                        .zip(&oracle.answers)
                        .position(|(a, b)| a != b)
                        .unwrap_or(r.answers.len().min(oracle.answers.len()));
                    format!(
                        "{mode} pass at {nproc} threads differs from 1 thread at input {diff}: {:?} vs {:?}",
                        r.answers.get(diff),
                        oracle.answers.get(diff)
                    )
                });
            }
            match mode {
                "plain" => plain.push(r),
                "traced" => traced.push(r),
                _ => collected.push(r),
            }
        }
    }

    let calls_per_pass = plain[0].calls.len();
    let passes = plain.len();
    let calls: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.calls.iter().map(|&(_, ms)| ms))
        .collect();
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let per_pass = |f: &dyn Fn(&Report) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let wall = per_pass(&|r| r.wall_s);
    if !args.trace {
        metrics.push(("setup_s".into(), per_pass(&|r| r.setup_s), "s"));
        metrics.push(("wall_s".into(), wall, "s"));
        // Percentiles over every call of every pass: a run makes at
        // least 100, so at least ten lie beyond p90.
        metrics.push(("call_ms_p50".into(), quantile(&calls, 0.5), "ms"));
        metrics.push(("call_ms_p90".into(), quantile(&calls, 0.9), "ms"));
        metrics.push((
            "sim_miters_per_s".into(),
            per_pass(&|r| r.iterations as f64 / 1e6 / r.wall_s),
            "Miter/s",
        ));
        metrics.push((
            "nests_per_s".into(),
            per_pass(&|r| r.nests as f64 / r.wall_s),
            "1/s",
        ));
        metrics.push(("cli_ms_p50".into(), median(&cli_ms), "ms"));
        metrics.push((
            "peak_rss_mb".into(),
            per_pass(&|r| r.rss_kb as f64 / 1024.0),
            "MB",
        ));
        metrics.push((
            "words_per_element".into(),
            plain[0].words as f64 / oracle.distinct.max(1) as f64,
            "words/elem",
        ));
    } else {
        let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for r in traced.iter().chain(&collected) {
            for (k, v) in &r.metrics {
                by_name.entry(k.clone()).or_default().push(*v);
            }
        }
        for (k, vs) in by_name {
            let unit = unit_of(&k);
            metrics.push((k, median(&vs), unit));
        }
        let traced_wall = median(&traced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        // The collecting pass covers the first quarter of the inputs:
        // compare it with the plain passes' calls on those inputs.
        let share = flow::collect_share(&inputs).len();
        let plain_share = per_pass(&|r| {
            r.calls
                .iter()
                .filter(|(i, _)| *i < share)
                .map(|(_, ms)| ms / 1e3)
                .sum()
        });
        let collect_wall = median(&collected.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        metrics.push(("bench.trace_overhead".into(), traced_wall / wall, "ratio"));
        metrics.push((
            "obs.trace_overhead".into(),
            collect_wall / plain_share,
            "ratio",
        ));
        metrics.push(("cli.spawn_ms".into(), median(&spawn_ms), "ms"));
    }

    // Non-finite values cannot be reported; count them as failures.
    for (k, v, _) in &metrics {
        tally.check(v.is_finite(), || format!("metric {k} is not finite"));
    }
    metrics.retain(|(_, v, _)| v.is_finite());

    println!(
        "loopbench workload={} seed={} nproc={nproc} session_threads={nproc} trace={} passes={passes} calls_per_pass={calls_per_pass} call_samples={} cli_samples={}",
        w.label(),
        args.seed,
        u8::from(args.trace),
        calls.len(),
        cli_ms.len()
    );
    if nproc == 1 {
        println!("note: 1 CPU: sim.pass1_scaling and sim.simulate_scaling are absent");
    }
    let walls: Vec<String> = plain.iter().map(|r| format!("{:.3}", r.wall_s)).collect();
    eprintln!("pass walls (s): {}", walls.join(" "));
    for (k, v, u) in &metrics {
        eprintln!("{k:<36} {v:>16.6} {u}");
    }
    for f in &tally.failures {
        eprintln!("FAILED {f}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v, u)| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failures.is_empty(),
        tally.attempted.max(1),
        tally.failures.len(),
        body.join(", ")
    );
    Ok(())
}

fn unit_of(metric: &str) -> &'static str {
    if metric.ends_with("_ms") {
        "ms"
    } else if metric.ends_with("_miters_per_s") {
        "Miter/s"
    } else if metric.ends_with("_mb_per_s") {
        "MB/s"
    } else if metric.ends_with("_bytes") {
        "bytes"
    } else if metric.ends_with("ratio")
        || metric.ends_with("scaling")
        || metric.ends_with("overrun")
        || metric.ends_with("slack")
        || metric.ends_with("_vs_nest_sum")
        || metric.ends_with("overhead")
    {
        "ratio"
    } else {
        "count"
    }
}
