#!/usr/bin/env bash
# Offline CI: tier-1 build/test (the whole workspace), a repeat gate for
# the thread-invariance suites, a smoke run of the performance suite and
# a robustness gate over pathological inputs.
#
# `./ci.sh robustness` builds the release CLI and runs only the
# robustness step; `./ci.sh check` likewise runs only the static-analysis
# gate (`loopmem check` over every kernel and pathological input);
# `./ci.sh scratchpad` runs only the shared-scratchpad sizing gate;
# `./ci.sh chaos` runs only the fault-injection chaos-differential gate;
# `./ci.sh verify` runs only the proof-carrying certificate gate
# (`loopmem verify` over every kernel and pathological input, plus a
# tampered-certificate rejection check);
# `./ci.sh trace` runs only the observability gate (`loopmem trace` over
# kernels and the pathological corpus: every NDJSON stream must pass the
# independent tracecheck recount and be byte-identical across thread
# counts);
# `./ci.sh loopbench` runs only the benchmark-oracle gate (one short
# `loopbench` run per workload, which must report correct answers and no
# failures);
# `./ci.sh thread-identity` runs only the repeat gate for the
# thread-invariance suites (each test binary 20 times in release);
# `./ci.sh bench-multicore` runs the perfsuite smoke and requires the
# host to be multi-core (the GitHub-runner bench matrix job).
set -euo pipefail
cd "$(dirname "$0")"

# Runs the governed CLI on one pathological input and asserts (a) exit 0
# and (b) an expected token in stdout. The inputs are pathological (huge,
# overflowing, panicking or empty iteration spaces): every run must end
# in its typed outcome within 20 s, never hang or crash.
robustness_case() {
    local expect="$1"
    shift
    local out
    if ! out="$(timeout 20 ./target/release/loopmem "$@" 2>&1)"; then
        echo "FAIL (exit): loopmem $*"
        echo "$out"
        return 1
    fi
    if ! grep -qF "$expect" <<<"$out"; then
        echo "FAIL (missing '$expect'): loopmem $*"
        echo "$out"
        return 1
    fi
    echo "ok   loopmem $* => '$expect'"
}

robustness_step() {
    echo "== robustness: governed CLI on pathological corpus =="
    local start
    start=$(date +%s)
    local c=tests/robustness
    # ~10^12-iteration stencil: iteration cap degrades to bounds.
    robustness_case "outcome    : bounded" simulate "$c/huge_iteration_space.loop" --max-iters 100000
    # Subscript coefficients near i64::MAX: typed overflow, no abort.
    robustness_case "outcome    : overflow" simulate "$c/overflow_coeffs.loop" --timeout-ms 5000
    # Empty iteration space: still exact under a budget.
    robustness_case "outcome    : exact" simulate "$c/empty_nest.loop" --timeout-ms 5000
    # Rank-deficient access over a huge span: deadline degrades to bounds.
    robustness_case "outcome    : bounded" simulate "$c/rank_deficient.loop" --timeout-ms 500
    # Program whose middle nest panics (bound overflow): only that nest
    # fails, the rest stay exact and the program answer is bounded.
    robustness_case "nest1 : failed" pipeline "$c/panicking_program.loop" --timeout-ms 5000
    robustness_case "nest0 : exact" pipeline "$c/panicking_program.loop" --timeout-ms 5000
    robustness_case "outcome           : bounded" pipeline "$c/panicking_program.loop" --timeout-ms 5000
    # Loop bound near i64::MAX: iteration cap trips instead of hanging.
    robustness_case "outcome    : bounded" simulate "$c/near_max_bounds.loop" --max-iters 1000
    # Governed optimizer search on the unsimulatable nest.
    robustness_case "outcome    : bounded" optimize "$c/huge_iteration_space.loop" --max-iters 100000
    # 9·10^6 elements behind the linearized subscript X[10^8·i + j]: the
    # planner delinearizes it into a 3000 × 3000 table, so the run fits
    # in 512 MiB of address space. The subshell limits only its own
    # processes. `--threads 2` pins the table budget, which the planner
    # splits across the workers: from 11 workers on the table no longer
    # fits and the array falls back to a hashmap that outgrows the limit.
    (
        ulimit -v 524288
        robustness_case "outcome    : exact" \
            simulate tests/memory/linearized_3000.loop --threads 2 --timeout-ms 5000
    )
    local elapsed=$(( $(date +%s) - start ))
    echo "robustness corpus completed in ${elapsed}s"
    if [ "$elapsed" -ge 10 ]; then
        echo "FAIL: robustness corpus took ${elapsed}s (budget: <10s)"
        return 1
    fi
}

# Runs `loopmem check --deny warnings --format json` on one file and
# asserts (a) the exact exit code and (b) the exact sorted set of distinct
# diagnostic codes it emits ('' for a clean file). This pins the static
# classification of every kernel and pathological input: the robustness
# corpus is triaged without simulating a single iteration.
check_case() {
    local file="$1" want_exit="$2" want_codes="$3"
    local out code codes
    set +e
    out="$(./target/release/loopmem check "$file" --deny warnings --format json 2>&1)"
    code=$?
    set -e
    if [ "$code" -ne "$want_exit" ]; then
        echo "FAIL (exit $code, want $want_exit): loopmem check $file"
        echo "$out"
        return 1
    fi
    codes="$(grep -o '"code":"LM[0-9]*"' <<<"$out" | cut -d'"' -f4 | sort -u | paste -sd, - || true)"
    if [ "$codes" != "$want_codes" ]; then
        echo "FAIL (codes '$codes', want '$want_codes'): loopmem check $file"
        echo "$out"
        return 1
    fi
    echo "ok   loopmem check $file => exit $want_exit, codes '${want_codes:-clean}'"
}

check_step() {
    echo "== static analysis: loopmem check over kernels + robustness corpus =="
    local start
    start=$(date +%s)
    check_case kernels/matmult.loop     0 "LM0002"
    check_case kernels/sor.loop         0 ""
    check_case kernels/example8.loop    0 "LM0002"
    check_case kernels/rasta_flt.loop   0 "LM0002"
    check_case kernels/example6.loop    1 "LM0003"
    check_case kernels/pipeline.loop    1 "LM0008,LM0011"
    local c=tests/robustness
    # Every pathological input is classified statically — the lint pass
    # predicts, without running them, exactly why each one needs the
    # governed engine (volume, overflow, emptiness).
    check_case "$c/empty_nest.loop"           1 "LM0005,LM0006"
    check_case "$c/huge_iteration_space.loop" 1 "LM0002,LM0010"
    check_case "$c/near_max_bounds.loop"      1 "LM0005,LM0010"
    check_case "$c/overflow_coeffs.loop"      1 "LM0009"
    check_case "$c/panicking_program.loop"    1 "LM0005,LM0009"
    check_case "$c/rank_deficient.loop"       1 "LM0002,LM0010"
    echo "-- differential sanitizer over all kernels and analyzer goldens --"
    local out
    out="$(./target/release/loopmem check kernels/*.loop crates/analyze/tests/golden/*.loop \
        --sanitize --format json)" || true
    if grep -q '"code":"LM9' <<<"$out"; then
        echo "FAIL: estimator/simulator disagreement (LM9xxx)"
        echo "$out"
        return 1
    fi
    echo "ok   sanitizer: estimators and simulator agree on every kernel and golden"
    local elapsed=$(( $(date +%s) - start ))
    echo "check step completed in ${elapsed}s"
    if [ "$elapsed" -ge 30 ]; then
        echo "FAIL: check step took ${elapsed}s (budget: <30s)"
        return 1
    fi
}

# The shared-scratchpad sizing gate: every kernel must size exactly, the
# pathological corpus must degrade to bounds (never crash), and fusing
# the producer/consumer pipeline must strictly shrink the scratchpad.
scratchpad_step() {
    echo "== scratchpad: shared-buffer sizing over kernels + robustness corpus =="
    local start
    start=$(date +%s)
    local k
    for k in kernels/*.loop; do
        robustness_case "outcome           : exact" scratchpad "$k"
    done
    local c=tests/robustness
    robustness_case "outcome           : bounded" scratchpad "$c/huge_iteration_space.loop" --max-iters 100000
    robustness_case "outcome           : bounded" scratchpad "$c/overflow_coeffs.loop" --timeout-ms 5000 --max-iters 1000000
    robustness_case "outcome           : exact" scratchpad "$c/empty_nest.loop" --timeout-ms 5000
    robustness_case "outcome           : bounded" scratchpad "$c/rank_deficient.loop" --timeout-ms 5000 --max-iters 1000000
    robustness_case "outcome           : bounded" scratchpad "$c/near_max_bounds.loop" --timeout-ms 5000 --max-iters 1000000
    # The panicking middle nest is contained: its neighbours stay exact
    # and the program-level answer degrades to an interval.
    robustness_case "nest1 : failed" scratchpad "$c/panicking_program.loop" --timeout-ms 5000
    robustness_case "outcome           : bounded" scratchpad "$c/panicking_program.loop" --timeout-ms 5000
    # Cross-nest buffer reuse: --fuse must strictly shrink the pipeline.
    local out unfused fused
    out="$(./target/release/loopmem scratchpad kernels/pipeline.loop --fuse)"
    unfused="$(awk '$1 == "scratchpad" && $2 == ":" {print $3}' <<<"$out")"
    fused="$(awk '$1 == "scratchpad" && $2 == "fused" {print $4}' <<<"$out")"
    if [ -z "$unfused" ] || [ -z "$fused" ] || [ "$fused" -ge "$unfused" ]; then
        echo "FAIL: --fuse did not shrink pipeline.loop (${unfused:-?} -> ${fused:-?} words)"
        echo "$out"
        return 1
    fi
    echo "ok   loopmem scratchpad kernels/pipeline.loop --fuse => $unfused -> $fused words"
    local elapsed=$(( $(date +%s) - start ))
    echo "scratchpad step completed in ${elapsed}s"
    if [ "$elapsed" -ge 10 ]; then
        echo "FAIL: scratchpad step took ${elapsed}s (budget: <10s)"
        return 1
    fi
}

# The chaos-differential gate: every governed entry point under a seeded
# deterministic fault matrix (budget trips, cancellation, table
# rejection, u32 overflow, injected panics) at t in {1, 2, 4}, checked
# against the six oracles of DESIGN.md §13/§15. Zero violations required;
# salvage must engage at least once so the salvaged-prefix path is
# provably exercised, not just compiled. The trace oracle re-runs every
# case with a collecting sink attached (answers and rendered trace bytes
# must match the untraced run at every thread count), which roughly
# doubles the sweep — hence the larger time budget than the other steps.
chaos_step() {
    echo "== chaos: fault-injection sweep over kernels + robustness corpus =="
    local start
    start=$(date +%s)
    local out
    if ! out="$(./target/release/loopmem chaos kernels/*.loop tests/robustness/*.loop --seed 1)"; then
        echo "$out"
        echo "FAIL: loopmem chaos reported oracle violations"
        return 1
    fi
    echo "$out"
    if ! grep -q "^violations : 0$" <<<"$out"; then
        echo "FAIL: expected 'violations : 0' in the loopmem chaos summary"
        return 1
    fi
    if grep -q "^salvaged   : 0$" <<<"$out"; then
        echo "FAIL: no run produced a salvaged-prefix bound tighter than analytic"
        return 1
    fi
    local elapsed=$(( $(date +%s) - start ))
    echo "chaos step completed in ${elapsed}s"
    if [ "$elapsed" -ge 25 ]; then
        echo "FAIL: chaos step took ${elapsed}s (budget: <25s)"
        return 1
    fi
}

# The proof-carrying certificate gate: every kernel and every
# pathological input must emit a certificate stream that the independent
# checker accepts (degraded outcomes must yield valid bounds
# certificates, never silence), and a tampered certificate must be
# rejected — the checker is not a rubber stamp.
verify_step() {
    echo "== verify: proof-carrying certificates over kernels + robustness corpus =="
    local start
    start=$(date +%s)
    local tmp
    tmp="$(mktemp -d)"
    local f out
    for f in kernels/*.loop tests/robustness/*.loop; do
        if ! out="$(./target/release/loopmem verify "$f" --emit-cert "$tmp/certs.ndjson" 2>&1)"; then
            echo "FAIL (exit): loopmem verify $f"
            echo "$out"
            rm -rf "$tmp"
            return 1
        fi
        if ! grep -qF ", 0 violations" <<<"$out"; then
            echo "FAIL (missing ', 0 violations'): loopmem verify $f"
            echo "$out"
            rm -rf "$tmp"
            return 1
        fi
        if ! grep -q '"cert":' "$tmp/certs.ndjson"; then
            echo "FAIL: loopmem verify $f emitted an empty certificate stream"
            rm -rf "$tmp"
            return 1
        fi
        case "$f" in
        tests/robustness/*)
            # Degraded analyses still certify: each pathological file
            # must carry at least one checkable bounds certificate.
            if ! grep -q '"cert":"bounds"' "$tmp/certs.ndjson"; then
                echo "FAIL: $f carries no bounds certificate"
                cat "$tmp/certs.ndjson"
                rm -rf "$tmp"
                return 1
            fi
            ;;
        esac
        echo "ok   loopmem verify $f => 0 violations"
    done
    ./target/release/loopmem verify kernels/example8.loop \
        --emit-cert "$tmp/ex8.ndjson" > /dev/null
    sed 's/"mws_after":21/"mws_after":20/' "$tmp/ex8.ndjson" > "$tmp/ex8-tampered.ndjson"
    if cmp -s "$tmp/ex8.ndjson" "$tmp/ex8-tampered.ndjson"; then
        echo "FAIL: tamper sed matched nothing in example8's certificate stream"
        rm -rf "$tmp"
        return 1
    fi
    set +e
    out="$(./target/release/loopmem verify kernels/example8.loop \
        --cert "$tmp/ex8-tampered.ndjson" 2>&1)"
    local code=$?
    set -e
    rm -rf "$tmp"
    if [ "$code" -eq 0 ] || ! grep -q "LM7004" <<<"$out"; then
        echo "FAIL (exit $code): tampered optimality certificate was not rejected with LM7004"
        echo "$out"
        return 1
    fi
    echo "ok   tampered certificate rejected => exit $code, LM7004"
    local elapsed=$(( $(date +%s) - start ))
    echo "verify step completed in ${elapsed}s"
    if [ "$elapsed" -ge 10 ]; then
        echo "FAIL: verify step took ${elapsed}s (budget: <10s)"
        return 1
    fi
}

# The observability gate: `loopmem trace` must produce a stream that the
# independent tracecheck recount accepts on every kernel and every
# pathological input (catch_unwind containment — a panicking nest still
# yields a checkable trace), and the stream's bytes must not depend on
# the worker-thread count.
trace_step() {
    echo "== trace: deterministic observability over kernels + robustness corpus =="
    local start
    start=$(date +%s)
    local tmp
    tmp="$(mktemp -d)"
    local f out
    for f in kernels/*.loop tests/robustness/*.loop; do
        if ! out="$(./target/release/loopmem trace "$f" --out "$tmp/base.ndjson" 2>&1)"; then
            echo "FAIL (exit): loopmem trace $f"
            echo "$out"
            rm -rf "$tmp"
            return 1
        fi
        if ! ./target/release/tracecheck "$tmp/base.ndjson"; then
            echo "FAIL: tracecheck rejected the stream for $f"
            rm -rf "$tmp"
            return 1
        fi
        # The canonical stream is schedule-independent: re-running at
        # other worker-thread counts, an odd one included, must reproduce
        # it byte for byte.
        local t
        for t in 1 3 4; do
            ./target/release/loopmem trace "$f" --threads "$t" --out "$tmp/tn.ndjson" > /dev/null 2>&1
            if ! cmp -s "$tmp/base.ndjson" "$tmp/tn.ndjson"; then
                echo "FAIL: trace bytes differ between --threads default and --threads $t for $f"
                rm -rf "$tmp"
                return 1
            fi
        done
    done
    echo "ok   every trace stream checked and thread-count invariant"
    # A mangled counters line must be rejected — the recount is not a
    # rubber stamp.
    ./target/release/loopmem trace kernels/example8.loop --out "$tmp/ex8.ndjson" > /dev/null
    sed 's/"certificates":6/"certificates":7/' "$tmp/ex8.ndjson" > "$tmp/ex8-tampered.ndjson"
    if cmp -s "$tmp/ex8.ndjson" "$tmp/ex8-tampered.ndjson"; then
        echo "FAIL: tamper sed matched nothing in example8's trace stream"
        rm -rf "$tmp"
        return 1
    fi
    if ./target/release/tracecheck "$tmp/ex8-tampered.ndjson" > /dev/null; then
        echo "FAIL: tampered trace counters were not rejected"
        rm -rf "$tmp"
        return 1
    fi
    echo "ok   tampered trace counters rejected"
    rm -rf "$tmp"
    local elapsed=$(( $(date +%s) - start ))
    echo "trace step completed in ${elapsed}s"
    # Every file is traced four times (byte-identity re-runs at --threads
    # 1, 3 and 4), so this step gets a wider budget than the single-pass
    # gates.
    if [ "$elapsed" -ge 20 ]; then
        echo "FAIL: trace step took ${elapsed}s (budget: <20s)"
        return 1
    fi
}

# The benchmark's own oracles: one short run of each loopbench workload.
# A run checks the dense engine against the hashmap engine, every answer
# at `nproc` threads against the 1-thread answer, every certificate
# against the independent checker (zero violations), governed intervals
# against the exact answers, and CLI exit codes. Its last stdout line is
# the JSON result, which must report `"correct": true` and `"failed": 0`.
loopbench_step() {
    echo "== loopbench: benchmark oracles on every workload =="
    local start w last
    start=$(date +%s)
    for w in sweep search program governed; do
        last="$(bash loopbench/run.sh --workload "$w" --seed 1 --seconds 1 --trace 0 | tail -n 1)"
        if ! python3 -c '
import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)
' "$last"; then
            echo "${last:0:300}"
            echo "FAIL: loopbench --workload $w did not report correct: true and failed: 0"
            return 1
        fi
        echo "ok   $w"
    done
    echo "loopbench step completed in $(( $(date +%s) - start ))s"
}

# The thread-identity gate: the suites that pin bit-identical answers and
# trace bytes across thread counts, each run 20 times in release. A race
# between workers shows up in only some runs (the cross-nest trip race
# failed 3-17 of 20), so one passing run proves little. Binaries run from
# their package directory, as `cargo test` runs them (`.` is the facade
# package, whose golden suite pins every Session verb at t in {1, 2, 4}).
THREAD_IDENTITY_RUNS=20
thread_identity_step() {
    echo "== thread-identity: thread-invariance suites, $THREAD_IDENTITY_RUNS runs each =="
    local spec pkg dir test bin i run out start
    local -a dirs=() bins=()
    for spec in obs:determinism sim:faults sim:kernel_equivalence sim:program_batch \
        bench:engine_equivalence .:session_equivalence; do
        case "${spec%%:*}" in
        .) pkg=loopmem dir=. ;;
        *) pkg="loopmem-${spec%%:*}" dir="crates/${spec%%:*}" ;;
        esac
        test="${spec##*:}"
        if ! out="$(cargo test --release --offline -p "$pkg" --test "$test" --no-run 2>&1)"; then
            echo "$out"
            echo "FAIL: could not build $pkg --test $test"
            return 1
        fi
        bin="$(sed -n 's/.*Executable .*(\(.*\))$/\1/p' <<<"$out")"
        if [ -z "$bin" ]; then
            echo "$out"
            echo "FAIL: no test executable reported for $pkg --test $test"
            return 1
        fi
        case "$bin" in /*) ;; *) bin="$PWD/$bin" ;; esac
        dirs+=("$dir")
        bins+=("$bin")
    done
    start=$(date +%s)
    for i in "${!bins[@]}"; do
        for run in $(seq 1 "$THREAD_IDENTITY_RUNS"); do
            if ! out="$(cd "${dirs[$i]}" && "${bins[$i]}" -q 2>&1)"; then
                echo "$out"
                echo "FAIL: ${bins[$i]##*/} failed on run $run of $THREAD_IDENTITY_RUNS"
                return 1
            fi
        done
        echo "ok   ${dirs[$i]} ${bins[$i]##*/}: $THREAD_IDENTITY_RUNS of $THREAD_IDENTITY_RUNS runs passed"
    done
    local elapsed=$(( $(date +%s) - start ))
    echo "thread-identity runs completed in ${elapsed}s"
    if [ "$elapsed" -ge 120 ]; then
        echo "FAIL: thread-identity runs took ${elapsed}s (budget: <120s)"
        return 1
    fi
}

if [ "${1:-}" = "thread-identity" ]; then
    thread_identity_step
    echo "== ci (thread-identity only) passed =="
    exit 0
fi

if [ "${1:-}" = "robustness" ]; then
    cargo build --release --offline -p loopmem
    robustness_step
    echo "== ci (robustness only) passed =="
    exit 0
fi

if [ "${1:-}" = "check" ]; then
    cargo build --release --offline -p loopmem
    check_step
    echo "== ci (check only) passed =="
    exit 0
fi

if [ "${1:-}" = "scratchpad" ]; then
    cargo build --release --offline -p loopmem
    scratchpad_step
    echo "== ci (scratchpad only) passed =="
    exit 0
fi

if [ "${1:-}" = "chaos" ]; then
    cargo build --release --offline -p loopmem
    chaos_step
    echo "== ci (chaos only) passed =="
    exit 0
fi

if [ "${1:-}" = "verify" ]; then
    cargo build --release --offline -p loopmem
    verify_step
    echo "== ci (verify only) passed =="
    exit 0
fi

if [ "${1:-}" = "trace" ]; then
    cargo build --release --offline -p loopmem
    cargo build --release --offline -p loopmem-bench --bin tracecheck
    trace_step
    echo "== ci (trace only) passed =="
    exit 0
fi

if [ "${1:-}" = "loopbench" ]; then
    loopbench_step
    echo "== ci (loopbench only) passed =="
    exit 0
fi

# The multi-core bench matrix: a perfsuite smoke run that must record the
# t in {2, 4} sweep rows (bit-identical answers, bounded wall time) —
# meaningful only on a multi-core host such as a GitHub runner.
if [ "${1:-}" = "bench-multicore" ]; then
    echo "== perfsuite (smoke, multi-core sweep) =="
    # The smoke report goes to a temp file: BENCH_loopmem.json is the
    # tracked full recording and a smoke run must not replace it.
    smoke_report="$(mktemp)"
    trap 'rm -f "$smoke_report"' EXIT
    cargo run -q --release --offline -p loopmem-bench --bin perfsuite -- --smoke \
        --out "$smoke_report"
    echo "== bench-multicore gate =="
    cargo run -q --release --offline -p loopmem-bench --bin benchcheck -- \
        "$smoke_report" --require-multicore
    echo "== ci (bench-multicore only) passed =="
    exit 0
fi

echo "== tier-1: build =="
cargo build --release --offline

echo "== tier-1: test (every workspace member, via default-members) =="
cargo test -q --offline

thread_identity_step

robustness_step

check_step

scratchpad_step

chaos_step

verify_step

cargo build --release --offline -p loopmem-bench --bin tracecheck
trace_step

loopbench_step

echo "== perfsuite (smoke) =="
# The smoke report goes to a temp file: BENCH_loopmem.json is the tracked
# full recording and a smoke run must not replace it.
smoke_report="$(mktemp)"
trap 'rm -f "$smoke_report"' EXIT
cargo run -q --release --offline -p loopmem-bench --bin perfsuite -- --smoke \
    --out "$smoke_report"

echo "== bench reports well-formed (in-tree parser) =="
test -s "$smoke_report"
# benchcheck parses with the workspace's own JSON parser (which rejects
# NaN/Infinity by construction) and pins the report schema: required row
# keys, known outcome tokens, governed/pass1/scratchpad sections present,
# every speedup finite and strictly positive.
cargo run -q --release --offline -p loopmem-bench --bin benchcheck -- \
    "$smoke_report" ci/bench_baseline.json

echo "== bench-regression gate =="
# The fresh smoke run's dense-vs-hashmap speedups — and the lane-split
# pass-1 kernels' speedups over the legacy interleaved inner loop — must
# stay within 0.8x of the committed baseline (ci/bench_baseline.json,
# also a smoke run). The baseline holds the minimum ratio observed across
# repeated runs, so an honest regression has to eat the measurement slack
# *and* the 0.8 factor.
SMOKE_REPORT="$smoke_report" python3 - <<'EOF'
import json, os, sys
fresh = json.load(open(os.environ["SMOKE_REPORT"]))["speedups"]
base = json.load(open("ci/bench_baseline.json"))["speedups"]
# trace_overhead sits at ~1.0x by construction (a disabled NullSink takes
# the identical fast path), so it gets a tighter 0.9 factor than the big
# engine-comparison ratios.
gated = {
    k: (0.9 if k == "trace_overhead" else 0.8)
    for k in base
    if k.endswith("dense1t_vs_hashmap")
    or k.endswith("lanesplit_vs_interleaved")
    or k == "trace_overhead"
}
assert gated, "baseline has no gated speedups"
assert any(k.endswith("dense1t_vs_hashmap") for k in gated), gated
assert any(k.endswith("lanesplit_vs_interleaved") for k in gated), gated
assert "trace_overhead" in gated, gated
failed = False
for k, factor in gated.items():
    if k not in fresh:
        print(f"FAIL {k}: missing from the fresh smoke report")
        failed = True
        continue
    floor = factor * base[k]
    verdict = "ok  " if fresh[k] >= floor else "FAIL"
    failed = failed or fresh[k] < floor
    print(f"{verdict} {k}: {fresh[k]:.2f}x (floor {floor:.2f}x = {factor} * baseline {base[k]:.2f}x)")
sys.exit(1 if failed else 0)
EOF

echo "== ci passed =="
