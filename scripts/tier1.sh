#!/usr/bin/env bash
# Tier-1 gate (see ROADMAP.md): the whole workspace must build in release,
# every test must pass, formatting and rustdoc must be clean, the in-tree domain lint (`cargo xtask lint`) must be clean, and —
# when a clippy toolchain is installed offline — the clippy set must be
# warning-free. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace
cargo test -q --workspace
# The probe's delay checks, the histogram's input check and the bit-pinned
# simulator reports (jittered deliveries too) must hold in the release build
# the benchmark measures, where `debug_assert!` is compiled out.
cargo test --release -q -p fpsping-sim --lib probe::
cargo test --release -q -p fpsping-num --lib log_histogram::
cargo test --release -q -p fpsping-sim --test golden_parity
cargo fmt --all --check
# Rustdoc must be warning-free, so a doc link to a deleted or private
# item (or an unescaped citation like [23]) fails the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace
# The domain lint needs no network and no extra toolchain components, so
# it runs unconditionally — clean or the gate fails.
cargo xtask lint
if cargo clippy --version >/dev/null 2>&1; then
    # First-party crates only — the vendored shims (vendor/*) mirror
    # third-party APIs and are not held to the repo's lint bar.
    cargo clippy -q --all-targets \
        -p fpsping -p fpsping-num -p fpsping-dist -p fpsping-traffic \
        -p fpsping-queue -p fpsping-sim -p fpsping-bench -p fpsping-obs \
        -p fpsping-serve -p fpsping-loadgen -p xtask \
        -- -D warnings
else
    echo "tier-1: clippy not installed; domain lint stands in:"
    cargo xtask lint --format summary
fi

# Artifact check: every study regenerates its committed
# results/*.csv byte for byte, every results/*.csv belongs to a study,
# and every line of an EXPERIMENTS.md CSV excerpt is a line of its file.
# A failure names the file and its first differing line. The check must
# also leave stderr empty: a `warn_once` fallback that fires in a
# committed study fails the gate.
REPRO_ERR="$(mktemp /tmp/fpsping-repro-err.XXXXXX)"
trap 'rm -f "$REPRO_ERR"' EXIT
REPRO_STATUS=0
./target/release/repro --check 2> "$REPRO_ERR" || REPRO_STATUS=$?
if [ "$REPRO_STATUS" -ne 0 ] || [ -s "$REPRO_ERR" ]; then
    echo "tier-1: repro --check exited $REPRO_STATUS or wrote to stderr:"
    cat "$REPRO_ERR"
    exit 1
fi
rm -f "$REPRO_ERR"

# Metrics smoke: the observability layer must produce parseable JSON with
# live solver counters from a real (tiny) sweep run. The CLI sweep runs
# the batch engine config, so the continuation ζ solver must show up:
# warm solves outnumbering cold solves is the live form of the reduced
# per-cell Newton-polish ratio the batch path exists to deliver.
METRICS_TMP="$(mktemp /tmp/fpsping-metrics.XXXXXX.json)"
trap 'rm -f "$METRICS_TMP"' EXIT
./target/release/fpsping-cli sweep --metrics-out "$METRICS_TMP" >/dev/null
if command -v python3 >/dev/null 2>&1; then
    python3 - "$METRICS_TMP" <<'PY'
import json, sys
snap = json.load(open(sys.argv[1]))
assert snap["schema"] == "fpsping-obs/1", snap.get("schema")
counters = snap["counters"]
assert any(k.startswith("num.roots.") and v > 0 for k, v in counters.items()), \
    "no live num.roots.* counter in metrics JSON"
warm = counters.get("queue.dek1.zeta.warm_solves", 0)
cold = counters.get("queue.dek1.zeta.cold_solves", 0)
assert warm > 0, "batch engine sweep recorded no queue.dek1.zeta.warm_solves"
assert warm > cold, \
    "continuation not engaging: warm_solves=%d <= cold_solves=%d" % (warm, cold)
# Release builds must compile the lockdep witness out entirely: the
# counters are still exported (schema stability) but must read zero.
assert counters.get("lockdep.checks", -1) == 0, \
    "lockdep active in a release build: checks=%r" % counters.get("lockdep.checks")
print("tier-1: metrics smoke OK (%d counters; zeta warm/cold = %d/%d)"
      % (len(counters), warm, cold))
PY
else
    grep -q '"schema": "fpsping-obs/1"' "$METRICS_TMP"
    grep -q '"num\.roots\.' "$METRICS_TMP"
    grep -q '"queue\.dek1\.zeta\.warm_solves"' "$METRICS_TMP"
    echo "tier-1: metrics smoke OK (grep fallback)"
fi

# Scale smoke: a fast N=10⁴ run (3 DSLAMs) must produce byte-identical
# CLI output across --shards 1 and --shards 2 — the sharding knob is
# worker parallelism only — and its metrics snapshot must show the scale
# engine's events and core packets. (The scale engine runs no calendar;
# the estimator smoke below checks `Network`'s.)
SCALE_METRICS="$(mktemp /tmp/fpsping-scale-metrics.XXXXXX.json)"
SCALE_OUT1="$(mktemp /tmp/fpsping-scale-out1.XXXXXX)"
SCALE_OUT2="$(mktemp /tmp/fpsping-scale-out2.XXXXXX)"
trap 'rm -f "$METRICS_TMP" "$SCALE_METRICS" "$SCALE_OUT1" "$SCALE_OUT2"' EXIT
./target/release/fpsping-cli sim --scale-n 10000 --shards 1 --sim-seconds 2 \
    > "$SCALE_OUT1"
./target/release/fpsping-cli sim --scale-n 10000 --shards 2 --sim-seconds 2 \
    --metrics-out "$SCALE_METRICS" > "$SCALE_OUT2"
diff "$SCALE_OUT1" "$SCALE_OUT2" || {
    echo "tier-1: scale report differs between --shards 1 and --shards 2"
    exit 1
}
if command -v python3 >/dev/null 2>&1; then
    python3 - "$SCALE_METRICS" <<'PY'
import json, sys
snap = json.load(open(sys.argv[1]))
counters = snap["counters"]
assert counters.get("sim.scale.events", 0) > 0, "no sim.scale.events counter"
packets = counters.get("sim.scale.packets", 0)
assert packets > 0, "scale smoke recorded no sim.scale.packets"
print("tier-1: scale smoke OK (shard-invariant report; %d core packets)" % packets)
PY
else
    grep -q '"sim\.scale\.events"' "$SCALE_METRICS"
    grep -q '"sim\.scale\.packets"' "$SCALE_METRICS"
    echo "tier-1: scale smoke OK (grep fallback)"
fi

# CLI refusal smoke: hostile input fails loudly. An invalid sweep
# scenario is a run error (exit 1); a flag that `--scale-n` would ignore,
# the removed `--calendar` flag, a command-level flag that its command
# does not read and a `--sim-seconds` past u64 nanoseconds are parse
# errors (exit 2). Each must print `error:` on stderr and nothing on
# stdout.
REFUSE_OUT="$(mktemp /tmp/fpsping-refuse-out.XXXXXX)"
REFUSE_ERR="$(mktemp /tmp/fpsping-refuse-err.XXXXXX)"
trap 'rm -f "$METRICS_TMP" "$SCALE_METRICS" "$SCALE_OUT1" "$SCALE_OUT2" \
    "$REFUSE_OUT" "$REFUSE_ERR"' EXIT
refuse() {
    local want="$1"
    shift
    local got=0
    ./target/release/fpsping-cli "$@" > "$REFUSE_OUT" 2> "$REFUSE_ERR" || got=$?
    if [ "$got" -ne "$want" ] || [ -s "$REFUSE_OUT" ] || ! grep -q '^error:' "$REFUSE_ERR"; then
        echo "tier-1: fpsping-cli $* exited $got (want $want), or printed to stdout, or no error: on stderr"
        cat "$REFUSE_OUT" "$REFUSE_ERR"
        exit 1
    fi
}
refuse 1 sweep --c-kbps nan
refuse 2 sim --scale-n 10 --k 2
refuse 2 sim --calendar heap
refuse 2 quantile --reps 3
refuse 2 sim --shards 2
refuse 2 sim --scale-n 10 --sim-seconds 1e30
rm -f "$REFUSE_OUT" "$REFUSE_ERR"
echo "tier-1: CLI refusal smoke OK (6 hostile invocations refused)"

# Estimator smoke: a 1 000-player run with the per-player RTT estimator
# on must show live traffic.estimator.* counters and the `Network`
# calendar's sim.calendar.enqueues in the metrics JSON, and a pooled p99
# within the documented short-run tolerance of the analytic quantile
# (±20% at ~150 pings/player — the estimator_convergence study shows the
# error collapsing with more pings).
EST_METRICS="$(mktemp /tmp/fpsping-est-metrics.XXXXXX.json)"
EST_OUT="$(mktemp /tmp/fpsping-est-out.XXXXXX)"
trap 'rm -f "$METRICS_TMP" "$SCALE_METRICS" "$SCALE_OUT1" "$SCALE_OUT2" \
    "$EST_METRICS" "$EST_OUT"' EXIT
./target/release/fpsping-cli sim --estimate --gamers 1000 --c-kbps 50000 \
    --sim-seconds 8 --seed 42 --metrics-out "$EST_METRICS" > "$EST_OUT"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$EST_METRICS" "$EST_OUT" <<'PY'
import json, re, sys
counters = json.load(open(sys.argv[1]))["counters"]
matches = counters.get("traffic.estimator.matches", 0)
assert matches > 0, "estimator run recorded no traffic.estimator.matches"
assert counters.get("sim.calendar.enqueues", 0) > 0, \
    "estimator run recorded no sim.calendar.enqueues"
assert counters.get("traffic.estimator.invalid_samples", 1) == 0, \
    "estimator rejected samples in a clean run: %r" % counters
out = open(sys.argv[2]).read()
m = re.search(r"est p99\s*: .* err ([+-][0-9.]+)%", out)
assert m, "no estimator p99 line in CLI output:\n%s" % out
err = float(m.group(1))
assert abs(err) <= 20.0, \
    "estimator p99 off the analytic quantile by %.1f%% (tolerance 20%%)" % err
print("tier-1: estimator smoke OK (%d matches, p99 err %+.2f%%)" % (matches, err))
PY
else
    grep -q '"traffic\.estimator\.matches"' "$EST_METRICS"
    grep -q '"sim\.calendar\.enqueues"' "$EST_METRICS"
    grep -q 'est p99' "$EST_OUT"
    echo "tier-1: estimator smoke OK (grep fallback)"
fi

# Serve smoke: boot the query server on an ephemeral port, replay a
# bounded loadgen burst against it, and require real live throughput, a
# warm cache, the eviction-parity gate at exactly zero, and a clean
# shutdown (the smoke's final frame is the shutdown op; the server
# process must exit on its own).
SERVE_LOG="$(mktemp /tmp/fpsping-serve-log.XXXXXX)"
SERVE_SMOKE="$(mktemp /tmp/fpsping-serve-smoke.XXXXXX.json)"
trap 'rm -f "$METRICS_TMP" "$SCALE_METRICS" "$SCALE_OUT1" "$SCALE_OUT2" \
    "$EST_METRICS" "$EST_OUT" "$SERVE_LOG" "$SERVE_SMOKE"' EXIT
./target/release/fpsping-serve --addr 127.0.0.1:0 --workers 2 \
    --cache-entries 16384 > "$SERVE_LOG" &
SERVE_PID=$!
SERVE_ADDR=""
for _ in $(seq 1 100); do
    SERVE_ADDR="$(sed -n 's/^listening on //p' "$SERVE_LOG")"
    [ -n "$SERVE_ADDR" ] && break
    sleep 0.05
done
if [ -z "$SERVE_ADDR" ]; then
    echo "tier-1: fpsping-serve never reported its listen address"
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
fi
./target/release/fpsping-loadgen --addr "$SERVE_ADDR" > "$SERVE_SMOKE"
for _ in $(seq 1 100); do
    kill -0 "$SERVE_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$SERVE_PID" 2>/dev/null; then
    echo "tier-1: fpsping-serve did not shut down after the shutdown op"
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
fi
wait "$SERVE_PID" 2>/dev/null || true
if command -v python3 >/dev/null 2>&1; then
    python3 - "$SERVE_SMOKE" <<'PY'
import json, sys
s = json.load(open(sys.argv[1]))
assert s["workload"] == "smoke", s
assert s["parity_max_abs_delta"] == 0.0, s["parity_max_abs_delta"]
assert s["clean_shutdown"] is True, s
# Weak live floor — perfbench's serve workloads carry the real figures;
# this only catches a server that is limping (debug build, busy-wait, ...).
assert s["qps"] >= 10_000, "live smoke QPS %.0f below the 10k floor" % s["qps"]
assert s["cache_hit_rate"] >= 0.5, \
    "64-hot-cell smoke should be cache-dominated: hit rate %.3f" % s["cache_hit_rate"]
assert s["p99_us"] > 0, s
# The smoke ends with one malformed frame of each kind (unknown op, K = 0,
# K above the cap, NaN tick); each must come back `bad request` with its
# own id. An exact count: host noise cannot move it.
assert s["bad_requests_refused"] == 4, \
    "malformed frames refused with their id: %r of 4" % s["bad_requests_refused"]
print("tier-1: serve smoke OK (%.0f qps live, p99 %.1f us, hit rate %.3f, "
      "4/4 malformed frames refused)"
      % (s["qps"], s["p99_us"], s["cache_hit_rate"]))
PY
else
    grep -q '"workload": "smoke"' "$SERVE_SMOKE"
    grep -q '"clean_shutdown": true' "$SERVE_SMOKE"
    grep -q '"bad_requests_refused": 4,' "$SERVE_SMOKE"
    echo "tier-1: serve smoke OK (grep fallback)"
fi

# Lockdep smoke: debug builds carry the fpsping_obs witness for the
# one lock rule — never hold two guards — (asserted compiled-out in
# release by the metrics smoke above). Both hot paths must complete
# under it: the serve accept → batch → respond cycle and the N=10⁴
# scale simulation. Any nested acquisition panics the process, so a
# clean exit IS the assertion; debug throughput gets no floor.
cargo build -q -p fpsping -p fpsping-serve -p fpsping-loadgen
LOCKDEP_LOG="$(mktemp /tmp/fpsping-lockdep-log.XXXXXX)"
LOCKDEP_SMOKE="$(mktemp /tmp/fpsping-lockdep-smoke.XXXXXX.json)"
LOCKDEP_SERVE_METRICS="$(mktemp /tmp/fpsping-lockdep-serve-metrics.XXXXXX.json)"
LOCKDEP_METRICS="$(mktemp /tmp/fpsping-lockdep-metrics.XXXXXX.json)"
trap 'rm -f "$METRICS_TMP" "$SCALE_METRICS" "$SCALE_OUT1" "$SCALE_OUT2" \
    "$EST_METRICS" "$EST_OUT" "$SERVE_LOG" "$SERVE_SMOKE" "$LOCKDEP_LOG" \
    "$LOCKDEP_SMOKE" "$LOCKDEP_SERVE_METRICS" "$LOCKDEP_METRICS"' EXIT
./target/debug/fpsping-serve --addr 127.0.0.1:0 --workers 2 \
    --cache-entries 16384 --metrics-out "$LOCKDEP_SERVE_METRICS" > "$LOCKDEP_LOG" &
LOCKDEP_PID=$!
LOCKDEP_ADDR=""
for _ in $(seq 1 100); do
    LOCKDEP_ADDR="$(sed -n 's/^listening on //p' "$LOCKDEP_LOG")"
    [ -n "$LOCKDEP_ADDR" ] && break
    sleep 0.05
done
if [ -z "$LOCKDEP_ADDR" ]; then
    echo "tier-1: debug fpsping-serve never reported its listen address"
    kill "$LOCKDEP_PID" 2>/dev/null || true
    exit 1
fi
./target/debug/fpsping-loadgen --addr "$LOCKDEP_ADDR" > "$LOCKDEP_SMOKE"
for _ in $(seq 1 100); do
    kill -0 "$LOCKDEP_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$LOCKDEP_PID" 2>/dev/null; then
    echo "tier-1: debug fpsping-serve did not shut down (lockdep smoke)"
    kill "$LOCKDEP_PID" 2>/dev/null || true
    exit 1
fi
wait "$LOCKDEP_PID" 2>/dev/null || true
grep -q '"clean_shutdown": true' "$LOCKDEP_SMOKE" || {
    echo "tier-1: lockdep serve smoke did not shut down cleanly"
    exit 1
}
./target/debug/fpsping-cli sim --scale-n 10000 --shards 2 --sim-seconds 2 \
    --metrics-out "$LOCKDEP_METRICS" > /dev/null
if command -v python3 >/dev/null 2>&1; then
    python3 - "$LOCKDEP_SERVE_METRICS" "$LOCKDEP_METRICS" <<'PY'
import json, sys
serve = json.load(open(sys.argv[1]))["counters"]
sim = json.load(open(sys.argv[2]))["counters"]
serve_checks = serve.get("lockdep.checks", 0)
sim_checks = sim.get("lockdep.checks", 0)
assert serve_checks > 0, "debug serve recorded no supervised lock acquisitions"
assert sim_checks > 0, "debug sim recorded no supervised lock acquisitions"
assert serve.get("engine.cache.rtt.hits", 0) > 0, \
    "debug serve smoke recorded no engine.cache.rtt.hits"
# The served hot path stays batched: a burst's memo probes take each
# touched shard's lock once (SharedCache::get_many), not once per
# request. Measured 0.054 checks per request on this smoke (2-core Xeon
# VM); one lock per request (the per-key probe) measured 1.02. The 0.25
# ceiling leaves 4.6x headroom for read-burst sizes and stays 4x under
# the unbatched path.
serve_requests = serve.get("serve.requests", 0)
assert serve_requests > 0, "debug serve smoke recorded no serve.requests"
per_request = serve_checks / serve_requests
assert per_request < 0.25, \
    "serve hot path not batched: %.3f lockdep checks per request (ceiling 0.25)" \
    % per_request
# The smoke's four malformed frames are its only bad requests, and each
# must be counted once.
bad = serve.get("serve.requests.bad", 0)
assert bad == 4, "serve.requests.bad = %r after the smoke's 4 malformed frames" % bad
mirrored = sorted(k for k in serve if k.startswith("serve.cache."))
assert not mirrored, "serve re-exports engine cache counters: %s" % mirrored
print("tier-1: lockdep smoke OK (serve + N=1e4 sim clean; "
      "%d serve checks, %.3f per request, %d sim checks)"
      % (serve_checks, per_request, sim_checks))
PY
else
    grep -q '"lockdep\.checks"' "$LOCKDEP_SERVE_METRICS"
    grep -q '"lockdep\.checks"' "$LOCKDEP_METRICS"
    grep -Eq '"serve\.requests\.bad": 4,?$' "$LOCKDEP_SERVE_METRICS"
    if grep -q '"serve\.cache\.' "$LOCKDEP_SERVE_METRICS"; then
        echo "tier-1: serve re-exports engine cache counters"
        exit 1
    fi
    echo "tier-1: lockdep smoke OK (grep fallback)"
fi

# Dimensioning work gate: the paper example (K = 9, T = 40 ms, 50 ms
# budget) must answer N_max = 82, and its bisection must decide each
# load probe with one tail, not a quantile solve. The gate is an exact
# count of numerical inversions, so host noise cannot move it: 96 with
# tail-decided probes, 1 551 when every probe solved a quantile.
DIM_OUT="$(mktemp /tmp/fpsping-dim-out.XXXXXX)"
DIM_METRICS="$(mktemp /tmp/fpsping-dim-metrics.XXXXXX.json)"
trap 'rm -f "$METRICS_TMP" "$SCALE_METRICS" "$SCALE_OUT1" "$SCALE_OUT2" \
    "$EST_METRICS" "$EST_OUT" "$SERVE_LOG" "$SERVE_SMOKE" "$LOCKDEP_LOG" \
    "$LOCKDEP_SMOKE" "$LOCKDEP_SERVE_METRICS" "$LOCKDEP_METRICS" \
    "$DIM_OUT" "$DIM_METRICS"' EXIT
./target/release/fpsping-cli dimension --budget-ms 50 \
    --metrics-out "$DIM_METRICS" > "$DIM_OUT"
grep -q 'N_max = 82,' "$DIM_OUT" || {
    echo "tier-1: dimension --budget-ms 50 did not answer N_max = 82:"
    cat "$DIM_OUT"
    exit 1
}
if command -v python3 >/dev/null 2>&1; then
    python3 - "$DIM_METRICS" <<'PY'
import json, sys
counters = json.load(open(sys.argv[1]))["counters"]
inversions = counters.get("num.laplace.euler.inversions", 0)
assert 0 < inversions < 200, \
    "dimension --budget-ms 50 ran %d numerical inversions (gate: 1..199)" % inversions
print("tier-1: dimensioning gate OK (N_max = 82, %d inversions)" % inversions)
PY
else
    DIM_INVERSIONS="$(sed -n 's/.*"num\.laplace\.euler\.inversions": *\([0-9]*\).*/\1/p' "$DIM_METRICS")"
    if [ -z "$DIM_INVERSIONS" ] || [ "$DIM_INVERSIONS" -eq 0 ] || [ "$DIM_INVERSIONS" -ge 200 ]; then
        echo "tier-1: dimension --budget-ms 50 ran '$DIM_INVERSIONS' numerical inversions (gate: 1..199)"
        exit 1
    fi
    echo "tier-1: dimensioning gate OK (grep fallback; $DIM_INVERSIONS inversions)"
fi

# The obs-off escape hatch must keep building everywhere it is wired:
# fpsping-bench and fpsping-serve sit at the top of the two dependency
# stacks, so these two checks cover every crate forwarding the feature.
cargo check -q -p fpsping-bench --features obs-off
cargo check -q -p fpsping-serve --features obs-off
echo "tier-1: obs-off builds OK"

# perfbench (its own Cargo workspace): the benchmark's unit tests, then a
# one-second correctness smoke of all four workloads. Every run checks
# its answers against its reference (the serial engine for the serve
# workloads; for the sims bit-identical repetitions, the operating point,
# zero invalid estimator samples and the estimator p99 within 20 % of
# the analytic quantile) and its work against an identity record; the
# smoke requires those checks to pass. No throughput floor: the figures
# are only comparable between interleaved runs on one host.
cargo test -q --offline --manifest-path perfbench/Cargo.toml
for workload in serve_hotspot serve_cold sim_scale sim_estimate; do
    PERF_LINE="$(cargo run --release --quiet --offline \
        --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)"
    if command -v python3 >/dev/null 2>&1; then
        python3 - "$workload" "$PERF_LINE" <<'PY'
import json, sys
workload, line = sys.argv[1], json.loads(sys.argv[2])
assert line["correct"] is True, "perfbench %s: not correct: %r" % (workload, line)
assert line["failed"] == 0, "perfbench %s: %r failed" % (workload, line["failed"])
print("tier-1: perfbench %s smoke OK (%d ops)" % (workload, line["attempted"]))
PY
    else
        echo "$PERF_LINE" | grep -q '"correct": *true' || {
            echo "tier-1: perfbench $workload smoke not correct: $PERF_LINE"
            exit 1
        }
        echo "$PERF_LINE" | grep -q '"failed": *0[,}]' || {
            echo "tier-1: perfbench $workload smoke failed ops: $PERF_LINE"
            exit 1
        }
        echo "tier-1: perfbench $workload smoke OK (grep fallback)"
    fi
done

echo "tier-1: OK"
