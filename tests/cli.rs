//! End-to-end tests of the `loopmem` CLI binary.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_loopmem"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn analyze_reports_example8_numbers() {
    let (ok, stdout, _) = run(&["analyze", "kernels/example8.loop"]);
    assert!(ok);
    assert!(stdout.contains("declared storage : 200 words"), "{stdout}");
    assert!(stdout.contains("exact MWS        : 44 words"), "{stdout}");
}

#[test]
fn analyze_prints_rows_in_declaration_order() {
    let (ok, first, _) = run(&["analyze", "kernels/matmult.loop"]);
    assert!(ok);
    assert_eq!(first, run(&["analyze", "kernels/matmult.loop"]).1);
    let rows: Vec<&str> = first
        .lines()
        .skip_while(|l| !l.starts_with("array "))
        .skip(1)
        .take(3)
        .map(|l| &l[..1])
        .collect();
    assert_eq!(rows, ["C", "A", "B"], "{first}");
}

/// Inputs where the §3 case analysis once drifted between commands: a
/// transpose, separable and non-uniform accesses on boxes too small for
/// their closed forms, and two arrays with several access-matrix groups.
const REPRODUCERS: [&str; 5] = [
    "crates/analyze/tests/golden/lm0003_transpose.loop",
    "crates/analyze/tests/golden/lm0002_separable_small_box.loop",
    "crates/analyze/tests/golden/lm0003_small_box.loop",
    "crates/analyze/tests/golden/lm0003_multi_offset_and_index.loop",
    "crates/analyze/tests/golden/lm0003_three_groups.loop",
];

#[test]
fn formulas_omit_arrays_with_several_groups() {
    for path in &REPRODUCERS[3..] {
        let (ok, stdout, _) = run(&["formulas", path]);
        let none = "no closed-form distinct-access formula applies";
        assert!(ok && stdout.contains(none), "{path}: {stdout}");
    }
}

#[test]
fn check_notes_name_what_analyze_reports() {
    for path in REPRODUCERS {
        let (ok, analyze, _) = run(&["analyze", path]);
        let note = if analyze.contains("NonUniformBounds") {
            "degrades to Example-6 value-range bounds"
        } else {
            assert!(analyze.contains("Enumerated"), "{analyze}");
            "the exact distinct-access count comes from simulation"
        };
        let (_, check, _) = run(&["check", path]);
        assert!(ok && check.contains(note), "{path}: {analyze}\n{check}");
    }
}

#[test]
fn optimize_reaches_21_and_prints_the_transformed_loop() {
    let (ok, stdout, _) = run(&["optimize", "kernels/example8.loop"]);
    assert!(ok);
    assert!(stdout.contains("MWS 44 -> 21"), "{stdout}");
    assert!(stdout.contains("for t1 ="), "{stdout}");
}

#[test]
fn deps_lists_paper_distances() {
    let (ok, stdout, _) = run(&["deps", "kernels/example8.loop"]);
    assert!(ok);
    assert!(stdout.contains("[3, -2]"), "{stdout}");
    assert!(stdout.contains("flow"), "{stdout}");
}

#[test]
fn print_applies_a_transform() {
    let (ok, stdout, _) = run(&["print", "kernels/example8.loop", "--transform", "2,3,1,1"]);
    assert!(ok);
    assert!(stdout.contains("max("), "{stdout}");
}

#[test]
fn formulas_prints_symbolic_output() {
    let (ok, stdout, _) = run(&["formulas", "kernels/matmult.loop"]);
    assert!(ok);
    assert!(stdout.contains("A_d(B) = N2*N3"), "{stdout}");
}

#[test]
fn bad_usage_fails_with_usage_text() {
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");
    let (ok, _, stderr) = run(&["analyze", "/nonexistent.loop"]);
    assert!(!ok);
    assert!(stderr.contains("nonexistent"), "{stderr}");
    let (ok, _, stderr) = run(&["optimize", "kernels/example8.loop", "--mode", "bogus"]);
    assert!(!ok);
    assert!(stderr.contains("bad --mode"), "{stderr}");
}

#[test]
fn simulate_profile_renders_bars() {
    let (ok, stdout, _) = run(&["simulate", "kernels/sor.loop", "--profile"]);
    assert!(ok);
    assert!(stdout.contains("window profile"), "{stdout}");
    assert!(stdout.contains("total MWS  : 60"), "{stdout}");
}

#[test]
fn li_pingali_mode_reports_failure_on_example8() {
    let (ok, _, stderr) = run(&["optimize", "kernels/example8.loop", "--mode", "li-pingali"]);
    assert!(!ok);
    assert!(stderr.contains("no legal transformation"), "{stderr}");
}

#[test]
fn pipeline_reports_boundary_and_fusion() {
    let (ok, stdout, _) = run(&["pipeline", "kernels/pipeline.loop"]);
    assert!(ok);
    assert!(
        stdout.contains("boundary 0->1      : 256 words live"),
        "{stdout}"
    );
    assert!(stdout.contains("fusable (try --fuse 0)"), "{stdout}");
    let (ok, stdout, _) = run(&["pipeline", "kernels/pipeline.loop", "--fuse", "0"]);
    assert!(ok);
    assert!(stdout.contains("whole-program MWS : 0 words"), "{stdout}");
}

#[test]
fn pipeline_batch_flags_are_thread_count_invariant() {
    let (ok, one, _) = run(&["pipeline", "kernels/pipeline.loop", "--threads", "1"]);
    assert!(ok);
    assert!(one.contains("(1 worker threads)"), "{one}");
    let (ok, four, _) = run(&["pipeline", "kernels/pipeline.loop", "--threads", "4"]);
    assert!(ok);
    // Same analysis modulo the reported worker count: the sharded engine
    // is bit-identical for every thread count.
    assert_eq!(
        one.replace("(1 worker threads)", ""),
        four.replace("(4 worker threads)", "")
    );
    assert!(one.contains("nest0"), "per-nest MWS table missing: {one}");

    let (ok, stdout, _) = run(&[
        "pipeline",
        "kernels/pipeline.loop",
        "--threads",
        "2",
        "--optimize",
    ]);
    assert!(ok);
    assert!(stdout.contains("batch optimize"), "{stdout}");

    let (ok, _, stderr) = run(&["pipeline", "kernels/pipeline.loop", "--threads", "0"]);
    assert!(!ok);
    assert!(
        stderr.contains("--threads needs a positive count"),
        "{stderr}"
    );
}

#[test]
fn check_prints_span_anchored_hint_for_matmult() {
    let (ok, stdout, _) = run(&["check", "kernels/matmult.loop"]);
    assert!(ok, "hints alone must not fail the run");
    assert!(stdout.contains("hint[LM0002]"), "{stdout}");
    assert!(stdout.contains("--> kernels/matmult.loop:8:"), "{stdout}");
    assert!(
        stdout.contains("^^^^^^^"),
        "caret underline missing: {stdout}"
    );
    assert!(stdout.contains("null-space vector (0, 0, 1)"), "{stdout}");
    assert!(
        stdout.contains("kernels/matmult.loop: 0 errors, 0 warnings, 3 hints"),
        "{stdout}"
    );
}

#[test]
fn check_deny_warnings_fails_on_overflow_and_volume() {
    // An error-severity lint fails the run even without --deny.
    let (ok, stdout, _) = run(&["check", "tests/robustness/overflow_coeffs.loop"]);
    assert!(!ok);
    assert!(stdout.contains("error[LM0009]"), "{stdout}");

    // Warnings only fail under --deny warnings.
    let file = "tests/robustness/huge_iteration_space.loop";
    let (ok, stdout, _) = run(&["check", file]);
    assert!(ok, "warnings alone pass by default: {stdout}");
    let (ok, stdout, _) = run(&["check", file, "--deny", "warnings"]);
    assert!(!ok);
    assert!(stdout.contains("warning[LM0010]"), "{stdout}");
}

#[test]
fn check_json_emits_schema_conforming_ndjson() {
    use loopmem::analyze::{parse_json, Json};
    let (ok, stdout, _) = run(&[
        "check",
        "kernels/matmult.loop",
        "kernels/sor.loop",
        "--format",
        "json",
        "--sanitize",
    ]);
    assert!(ok);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "3 hints, nothing from clean sor: {stdout}");
    for line in lines {
        let v = parse_json(line).unwrap_or_else(|| panic!("bad JSON: {line}"));
        assert_eq!(v.get("code").and_then(Json::as_str), Some("LM0002"));
        assert_eq!(v.get("severity").and_then(Json::as_str), Some("hint"));
        assert_eq!(
            v.get("file").and_then(Json::as_str),
            Some("kernels/matmult.loop")
        );
        assert!(
            v.get("span").and_then(|s| s.get("start")).is_some(),
            "{line}"
        );
    }
}

#[test]
fn check_reports_parse_errors_in_band_with_a_caret() {
    let dir = std::env::temp_dir().join("loopmem-check-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.loop");
    std::fs::write(&bad, "array A[10]\nfor i = 1 to { A[i]; }\n").unwrap();
    let bad = bad.to_str().unwrap().to_string();

    let (ok, stdout, _) = run(&["check", &bad]);
    assert!(!ok, "parse errors must fail the run");
    assert!(stdout.contains("error[LM0000]: parse error"), "{stdout}");
    assert!(stdout.contains('^'), "caret missing: {stdout}");

    let (ok, stdout, _) = run(&["check", &bad, "--format", "json"]);
    assert!(!ok);
    use loopmem::analyze::{parse_json, Json};
    let v = parse_json(stdout.lines().next().unwrap()).expect("one JSON object");
    assert_eq!(v.get("code").and_then(Json::as_str), Some("LM0000"));
    assert_eq!(v.get("line").and_then(Json::as_i64), Some(2));
}

#[test]
fn zero_budgets_degrade_to_typed_outcomes_without_panicking() {
    // A zero iteration cap trips at the very first poll; a zero timeout
    // trips before the sweep starts. Both must exit 0 with a typed
    // outcome line and analytic bounds, never a panic.
    for flags in [["--max-iters", "0"], ["--timeout-ms", "0"]] {
        let (ok, stdout, stderr) = run(&["simulate", "kernels/example8.loop", flags[0], flags[1]]);
        assert!(ok, "governed degradation must exit 0: {stderr}");
        assert!(stdout.contains("outcome    : bounded"), "{stdout}");
        assert!(stdout.contains("budget exhausted"), "{stdout}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

#[test]
fn verify_passes_kernels_and_rejects_tampered_certificates() {
    let (ok, stdout, _) = run(&["verify", "kernels/example8.loop"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("6 certificates, 0 violations"), "{stdout}");

    let dir = std::env::temp_dir().join("loopmem-verify-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let certs = dir.join("ex8.ndjson").to_str().unwrap().to_string();
    let (ok, _, _) = run(&["verify", "kernels/example8.loop", "--emit-cert", &certs]);
    assert!(ok);

    // The emitted stream checks clean when replayed from disk.
    let (ok, stdout, _) = run(&["verify", "kernels/example8.loop", "--cert", &certs]);
    assert!(ok, "{stdout}");

    // Tampering one claim makes the checker reject with a caret-rendered
    // LM7xxx diagnostic.
    let stream = std::fs::read_to_string(&certs).unwrap();
    assert!(stream.contains("\"mws_after\":21"), "{stream}");
    let bad = dir.join("ex8-bad.ndjson").to_str().unwrap().to_string();
    std::fs::write(&bad, stream.replace("\"mws_after\":21", "\"mws_after\":20")).unwrap();
    let (ok, stdout, _) = run(&["verify", "kernels/example8.loop", "--cert", &bad]);
    assert!(!ok, "tampered certificate must fail: {stdout}");
    assert!(stdout.contains("error[LM7004]"), "{stdout}");
    assert!(stdout.contains("^^^"), "caret underline missing: {stdout}");

    // A stream that does not parse is a malformed-certificate violation.
    let junk = dir.join("junk.ndjson").to_str().unwrap().to_string();
    std::fs::write(&junk, "{\"cert\":\"bogus\"}\n").unwrap();
    let (ok, stdout, _) = run(&["verify", "kernels/example8.loop", "--cert", &junk]);
    assert!(!ok);
    assert!(stdout.contains("error[LM7007]"), "{stdout}");
}

#[test]
fn verify_degrades_to_checkable_bounds_on_the_robustness_corpus() {
    let dir = std::env::temp_dir().join("loopmem-verify-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    for file in [
        "tests/robustness/overflow_coeffs.loop",
        "tests/robustness/panicking_program.loop",
    ] {
        let certs = dir
            .join(file.rsplit('/').next().unwrap().replace(".loop", ".ndjson"))
            .to_str()
            .unwrap()
            .to_string();
        let (ok, stdout, stderr) = run(&["verify", file, "--emit-cert", &certs]);
        assert!(ok, "{file}: {stdout}{stderr}");
        assert!(stdout.contains("0 violations"), "{file}: {stdout}");
        // A degraded run must emit bounds certificates, not silence.
        let stream = std::fs::read_to_string(&certs).unwrap();
        assert!(
            stream.contains("\"cert\":\"bounds\""),
            "{file}: no bounds certificate in {stream}"
        );
    }
}

#[test]
fn pipeline_and_scratchpad_emit_checkable_certificates() {
    let dir = std::env::temp_dir().join("loopmem-verify-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let certs = dir.join("pipe.ndjson").to_str().unwrap().to_string();
    let (ok, stdout, _) = run(&["pipeline", "kernels/pipeline.loop", "--emit-cert", &certs]);
    assert!(ok);
    assert!(stdout.contains("written to"), "{stdout}");
    let (ok, stdout, _) = run(&["verify", "kernels/pipeline.loop", "--cert", &certs]);
    assert!(ok, "pipeline certificates must check clean: {stdout}");

    let certs = dir.join("pad.ndjson").to_str().unwrap().to_string();
    let (ok, _, _) = run(&[
        "scratchpad",
        "kernels/pipeline.loop",
        "--fuse",
        "--emit-cert",
        &certs,
    ]);
    assert!(ok);
    let stream = std::fs::read_to_string(&certs).unwrap();
    assert!(stream.contains("\"cert\":\"sizing\""), "{stream}");
    assert!(stream.contains("\"cert\":\"fusion\""), "{stream}");
    let (ok, stdout, _) = run(&["verify", "kernels/pipeline.loop", "--cert", &certs]);
    assert!(ok, "scratchpad certificates must check clean: {stdout}");
}

#[test]
fn chaos_subcommand_reports_a_clean_sweep() {
    let (ok, stdout, stderr) = run(&["chaos", "kernels/example8.loop", "--seed", "5"]);
    assert!(ok, "chaos sweep must pass on a healthy kernel: {stderr}");
    assert!(stdout.contains("violations : 0"), "{stdout}");
    assert!(stdout.contains("28 cases"), "{stdout}");
}

#[test]
fn runs_without_budget_flags_degrade_instead_of_panicking() {
    // Every analysis run is governed, budget flags or not: an overflowing
    // or panicking nest degrades to a typed outcome and the run exits 0.
    for args in [
        &["analyze", "tests/robustness/overflow_coeffs.loop"][..],
        &["analyze", "tests/robustness/near_max_bounds.loop"],
        &["simulate", "tests/robustness/overflow_coeffs.loop"],
        &["optimize", "tests/robustness/overflow_coeffs.loop"],
        &["pipeline", "tests/robustness/overflow_coeffs.loop"],
        &[
            "scratchpad",
            "tests/robustness/overflow_coeffs.loop",
            "--fuse",
        ],
        &["pipeline", "tests/robustness/panicking_program.loop"],
    ] {
        let (ok, stdout, stderr) = run(args);
        assert!(ok, "{args:?} must exit 0: {stderr}");
        let typed = stdout.lines().any(|l| {
            l.starts_with("outcome")
                && [": bounded", ": overflow", ": failed"]
                    .iter()
                    .any(|o| l.ends_with(o))
        });
        assert!(typed, "{args:?}: no typed outcome line in {stdout}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn trace_records_one_search_span_per_nest() {
    for (file, nests) in [("kernels/example8.loop", 1), ("kernels/pipeline.loop", 2)] {
        let (ok, stdout, stderr) = run(&["trace", file, "--format", "json"]);
        assert!(ok, "{file}: {stderr}");
        let searches = stdout
            .lines()
            .filter(|l| {
                l.contains("\"event\":\"span-begin\"") && l.contains("\"label\":\"search\"")
            })
            .count();
        assert_eq!(searches, nests, "{file}: one search span per nest");
    }
}
