//! Validates perfsuite bench reports (`BENCH_loopmem.json`,
//! `ci/bench_baseline.json`) with the workspace's own JSON parser, so a
//! malformed or hand-mangled report can never silently pass the CI
//! regression gate.
//!
//! Usage:
//!
//! ```text
//! benchcheck <report.json>... [--require-multicore]
//! ```
//!
//! Default checks, per file: the document parses (the in-tree parser
//! rejects `NaN`/`Infinity` outright — they are not JSON), the suite
//! header is present, every result row carries the required keys with
//! sane values (`bench`/`subject` non-empty, `threads >= 1`, finite
//! non-negative `millis`, a known `outcome` token), the governed
//! pathological row is recorded as `bounded`, the pass-1 and scratchpad
//! sections exist, and every speedup is finite and strictly positive.
//!
//! `--require-multicore` additionally asserts the report was recorded on
//! a multi-core host: `available_parallelism >= 2`, the t ∈ {2, 4} sweep
//! rows of every sweeping section are present, their `mws_total` matches
//! the 1-thread row bit for bit, and their wall time is within tolerance
//! of the 1-thread row (a generous 10× + 50 ms — the point is catching
//! accidental serialization or a skipped sweep, not micro-benchmarking a
//! shared runner). It also requires the pass-1 scaling key
//! `synth-stream_dense2t_vs_1t` (a time-looped stream nest, two workers
//! against one) to be at least 1.0: a parallel sweep is never slower
//! than a serial one. Like the thread rows, the key is absent from
//! 1-CPU reports.

use loopmem_analyze::json::{parse_json, Json};
use std::process::ExitCode;

/// Outcome tokens a perfsuite row may carry.
const OUTCOMES: &[&str] = &["exact", "bounded", "failed", "overflow"];

/// `(bench, subject)` sections that sweep the 1/2/4-thread matrix on
/// multi-core hosts.
const SWEEP_SECTIONS: &[(&str, &str)] = &[
    ("simulate-dense", "synth-stream"),
    ("simulate-dense", "synth-reuse"),
    ("program-batch", "pipeline4"),
    ("optimize-program", "ex7-twice"),
    ("scratchpad", "pipeline4-size"),
];

/// The pass-1 scaling key `--require-multicore` holds at 1.0 or above.
const SCALING_KEY: &str = "synth-stream_dense2t_vs_1t";

/// Multi-thread rows may be at most `10 * millis_1t + 50ms`.
const MULTICORE_TOLERANCE_FACTOR: f64 = 10.0;
const MULTICORE_TOLERANCE_GRACE_MS: f64 = 50.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let require_multicore = args.iter().any(|a| a == "--require-multicore");
    let files: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    if files.is_empty() {
        eprintln!("usage: benchcheck <report.json>... [--require-multicore]");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in files {
        match check_file(path, require_multicore) {
            Ok((summary, warnings)) => {
                println!("ok   {path}: {summary}");
                for w in warnings {
                    println!("warn {path}: {w}");
                }
            }
            Err(problems) => {
                failed = true;
                for p in &problems {
                    println!("FAIL {path}: {p}");
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Validates one report; `Ok` carries a one-line summary plus any
/// non-fatal warnings, `Err` every problem found (the whole file is
/// checked, not just the first slip).
fn check_file(path: &str, require_multicore: bool) -> Result<(String, Vec<String>), Vec<String>> {
    let src = std::fs::read_to_string(path).map_err(|e| vec![format!("unreadable: {e}")])?;
    let doc = parse_json(&src)
        .ok_or_else(|| vec!["invalid JSON (NaN/Infinity are rejected by design)".to_string()])?;
    let mut problems = Vec::new();

    if doc.get("suite").and_then(Json::as_str) != Some("loopmem-perfsuite") {
        problems.push("missing or wrong \"suite\" header".to_string());
    }
    let avail = doc
        .get("available_parallelism")
        .and_then(Json::as_i64)
        .unwrap_or(0);
    if avail < 1 {
        problems.push("available_parallelism must be >= 1".to_string());
    }
    if doc
        .get("threads_default")
        .and_then(Json::as_i64)
        .unwrap_or(0)
        < 1
    {
        problems.push("threads_default must be >= 1".to_string());
    }

    let rows = match doc.get("results") {
        Some(Json::Arr(rows)) if !rows.is_empty() => rows,
        _ => {
            problems.push("\"results\" missing or empty".to_string());
            return Err(problems);
        }
    };
    for (k, row) in rows.iter().enumerate() {
        check_row(k, row, &mut problems);
    }

    // Section-presence checks: a report with the governed, pass-1, or
    // scratchpad section silently dropped must not pass.
    let governed: Vec<&Json> = rows
        .iter()
        .filter(|r| r.get("bench").and_then(Json::as_str) == Some("governed"))
        .collect();
    if governed.is_empty() {
        problems.push("no governed pathological row recorded".to_string());
    }
    for g in governed {
        if g.get("outcome").and_then(Json::as_str) != Some("bounded") {
            problems.push("governed pathological row must be 'bounded'".to_string());
        }
    }
    for section in ["pass1-", "scratchpad"] {
        if !rows.iter().any(|r| {
            r.get("bench")
                .and_then(Json::as_str)
                .is_some_and(|b| b.starts_with(section))
        }) {
            problems.push(format!("no '{section}' rows recorded"));
        }
    }

    let speedups = match doc.get("speedups") {
        Some(Json::Obj(m)) if !m.is_empty() => m,
        _ => {
            problems.push("\"speedups\" missing or empty".to_string());
            return Err(problems);
        }
    };
    for (name, v) in speedups {
        match v.as_f64() {
            Some(x) if x > 0.0 => {}
            Some(x) => problems.push(format!("speedup {name} is {x} (must be > 0)")),
            None => problems.push(format!("speedup {name} is not a number")),
        }
    }
    for required in [
        "dense1t_vs_hashmap",
        "lanesplit_vs_interleaved",
        "trace_overhead",
    ] {
        if !speedups.keys().any(|k| k.ends_with(required)) {
            problems.push(format!("no *_{required} speedup recorded"));
        }
    }

    if require_multicore {
        check_multicore(avail, rows, &mut problems);
        if avail >= 2 {
            match speedups.get(SCALING_KEY).and_then(Json::as_f64) {
                Some(x) if x >= 1.0 => {}
                Some(x) => problems.push(format!(
                    "{SCALING_KEY} is {x:.3}: two workers sweep slower than one"
                )),
                None => problems.push(format!("no {SCALING_KEY} speedup recorded")),
            }
        }
    }

    if problems.is_empty() {
        // Provenance, not validity: a 1-CPU recording is well-formed but
        // its thread-sweep speedups carry no scaling signal, so flag it
        // without failing (the multicore gate fails it explicitly).
        let mut warnings = Vec::new();
        if !require_multicore && avail == 1 {
            warnings.push(
                "recorded on a 1-CPU host: thread-sweep rows absent and \
                 speedups reflect no real parallelism"
                    .to_string(),
            );
        }
        Ok((
            format!(
                // Always name the recording host's parallelism: a stale
                // baseline re-recorded on different hardware is the #1
                // source of phantom regressions, and the provenance should
                // be visible without opening the JSON.
                "{} rows, {} speedups, recorded with available_parallelism={avail}{}",
                rows.len(),
                speedups.len(),
                if require_multicore {
                    ", multicore sweep verified".to_string()
                } else {
                    String::new()
                }
            ),
            warnings,
        ))
    } else {
        Err(problems)
    }
}

fn check_row(k: usize, row: &Json, problems: &mut Vec<String>) {
    for key in ["bench", "subject"] {
        if row
            .get(key)
            .and_then(Json::as_str)
            .is_none_or(str::is_empty)
        {
            problems.push(format!("row {k}: '{key}' missing or empty"));
        }
    }
    if row.get("threads").and_then(Json::as_i64).unwrap_or(0) < 1 {
        problems.push(format!("row {k}: 'threads' missing or < 1"));
    }
    match row.get("millis").and_then(Json::as_f64) {
        Some(ms) if ms >= 0.0 => {}
        _ => problems.push(format!("row {k}: 'millis' missing or negative")),
    }
    if row.get("iterations").and_then(Json::as_i64).unwrap_or(-1) < 0 {
        problems.push(format!("row {k}: 'iterations' missing or negative"));
    }
    match row.get("mws_total") {
        Some(Json::Null) => {}
        Some(v) if v.as_i64().is_some_and(|m| m >= 0) => {}
        _ => problems.push(format!("row {k}: 'mws_total' must be null or a count")),
    }
    match row.get("outcome").and_then(Json::as_str) {
        Some(o) if OUTCOMES.contains(&o) => {}
        other => problems.push(format!("row {k}: bad outcome {other:?}")),
    }
}

/// The multi-core assertions behind the `bench-multicore` CI job: the
/// sweep actually ran at t ∈ {2, 4}, agreed with the 1-thread answers,
/// and did not serialize.
fn check_multicore(avail: i64, rows: &[Json], problems: &mut Vec<String>) {
    if avail < 2 {
        problems.push(format!(
            "--require-multicore: available_parallelism is {avail} (need >= 2)"
        ));
        return; // a 1-CPU recording legitimately has no sweep rows
    }
    for &(bench, subject) in SWEEP_SECTIONS {
        let find = |threads: i64| {
            rows.iter().find(|r| {
                r.get("bench").and_then(Json::as_str) == Some(bench)
                    && r.get("subject").and_then(Json::as_str) == Some(subject)
                    && r.get("threads").and_then(Json::as_i64) == Some(threads)
            })
        };
        let Some(base) = find(1) else {
            problems.push(format!("{bench}/{subject}: no 1-thread row"));
            continue;
        };
        let base_ms = base.get("millis").and_then(Json::as_f64).unwrap_or(0.0);
        let base_mws = base.get("mws_total").and_then(Json::as_i64);
        for t in [2i64, 4] {
            let Some(row) = find(t) else {
                problems.push(format!("{bench}/{subject}: {t}-thread sweep row missing"));
                continue;
            };
            let mws = row.get("mws_total").and_then(Json::as_i64);
            if mws != base_mws {
                problems.push(format!(
                    "{bench}/{subject}: t={t} answer {mws:?} != 1t answer {base_mws:?}"
                ));
            }
            let ms = row.get("millis").and_then(Json::as_f64).unwrap_or(f64::MAX);
            let cap = MULTICORE_TOLERANCE_FACTOR * base_ms + MULTICORE_TOLERANCE_GRACE_MS;
            if ms > cap {
                problems.push(format!(
                    "{bench}/{subject}: t={t} took {ms:.3}ms, over tolerance \
                     ({MULTICORE_TOLERANCE_FACTOR}x * {base_ms:.3}ms 1t + \
                     {MULTICORE_TOLERANCE_GRACE_MS}ms = {cap:.3}ms)"
                ));
            }
        }
    }
}
