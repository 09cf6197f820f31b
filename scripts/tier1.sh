#!/usr/bin/env bash
# Tier-1 gate (see ROADMAP.md): the whole workspace must build in release,
# every test must pass, formatting and rustdoc must be clean, the in-tree domain lint (`cargo xtask lint`) must be clean, and —
# when a clippy toolchain is installed offline — the clippy set must be
# warning-free. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."
# Every temporary file of the gate lives in one scratch directory,
# removed on exit.
TIER1_TMP="$(mktemp -d /tmp/fpsping-tier1.XXXXXX)"
trap 'rm -rf "$TIER1_TMP"' EXIT

cargo build --release --workspace
cargo test -q --workspace
# The probe's delay checks, the histogram's input check, the bit-pinned
# simulator reports (jittered deliveries too), `Network`'s bit parity with
# the per-hop event loop it replaced, the calendar's pop order and
# storage bound, and `SimTime`'s integer rounding must hold in the release
# build the benchmark measures, where `debug_assert!` is compiled out.
cargo test --release -q -p fpsping-sim --lib probe::
cargo test --release -q -p fpsping-num --lib log_histogram::
cargo test --release -q -p fpsping-sim --test golden_parity
cargo test --release -q -p fpsping-sim --lib network::tests::network_matches_the_per_hop_oracle
cargo test --release -q -p fpsping-sim --test calendar_props
cargo test --release -q -p fpsping-sim --lib time::
# The D/E_K/1 conjugate fold: mirrored roots and weights bit-exact, the
# folded mix against its unfolded oracle, and the closed-form roots
# against the pinned 50-digit Lambert-W table (derived error bound, at
# most four steps a root), in the optimized float code the benchmark
# runs. The eq.-(35) closed forms (at the burst rate and for a spot θ < 1) against their
# 60-digit quantiles and the test-side eq.-(43) product, and the divided
# difference against the 300-digit pins of scripts/closed_form_ref.py, in
# release too.
cargo test --release -q -p fpsping-queue --test conjugate_pairs
cargo test --release -q -p fpsping-queue --lib erlang_mix::unfolded_oracle
cargo test --release -q -p fpsping-queue --lib dek1::tests::roots_match_the_pinned_lambert_w_table
cargo test --release -q -p fpsping --test closed_form
cargo test --release -q -p fpsping --test divided_difference
# The live serve smoke in release: the 10 k q/s floor (`cargo test`
# above ran its debug form).
cargo test --release -q -p fpsping-serve --test live_smoke
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
        -p fpsping-serve -p xtask \
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
REPRO_ERR="$TIER1_TMP/repro-err"
REPRO_STATUS=0
./target/release/repro --check 2> "$REPRO_ERR" || REPRO_STATUS=$?
if [ "$REPRO_STATUS" -ne 0 ] || [ -s "$REPRO_ERR" ]; then
    echo "tier-1: repro --check exited $REPRO_STATUS or wrote to stderr:"
    cat "$REPRO_ERR"
    exit 1
fi

# Metrics smoke: the observability layer must produce parseable JSON with
# live solver counters from a real (tiny) sweep run, the closed-form ζ
# solver's among them: its solves and its Halley/Newton steps.
METRICS_TMP="$TIER1_TMP/metrics.json"
./target/release/fpsping-cli sweep --metrics-out "$METRICS_TMP" >/dev/null
if command -v python3 >/dev/null 2>&1; then
    python3 - "$METRICS_TMP" <<'PY'
import json, sys
snap = json.load(open(sys.argv[1]))
assert snap["schema"] == "fpsping-obs/1", snap.get("schema")
counters = snap["counters"]
assert any(k.startswith("num.roots.") and v > 0 for k, v in counters.items()), \
    "no live num.roots.* counter in metrics JSON"
solves = counters.get("queue.dek1.zeta.solves", 0)
steps = counters.get("queue.dek1.zeta.newton_polish_steps", 0)
assert solves > 0, "sweep recorded no queue.dek1.zeta.solves"
assert steps > 0, "sweep recorded no queue.dek1.zeta.newton_polish_steps"
# The tail rule serves most of the paper's sweep from the eq.-(35)
# partial fractions (at least 7/9 of its quantile solves, the share they
# had when they were last re-anchored: 14 of 18), and the low-load
# quantiles they cannot serve from the divided difference (at least one).
expanded = counters.get("queue.combine.quantile.expanded", 0)
divided = counters.get("queue.combine.quantile.divided", 0)
inverted = counters.get("queue.combine.quantile.inverted", 0)
solved = expanded + divided + inverted
assert 9 * expanded >= 7 * solved > 0, \
    "expansion not serving: quantile expanded=%d, divided=%d, inverted=%d" \
    % (expanded, divided, inverted)
assert divided > 0, \
    "divided difference not serving: quantile expanded=%d, divided=%d, inverted=%d" \
    % (expanded, divided, inverted)
print("tier-1: metrics smoke OK (%d counters; zeta solves/steps = %d/%d; "
      "quantiles expanded/divided/inverted = %d/%d/%d)"
      % (len(counters), solves, steps, expanded, divided, inverted))
PY
else
    grep -q '"schema": "fpsping-obs/1"' "$METRICS_TMP"
    grep -q '"num\.roots\.' "$METRICS_TMP"
    grep -q '"queue\.dek1\.zeta\.solves"' "$METRICS_TMP"
    grep -q '"queue\.combine\.quantile\.expanded"' "$METRICS_TMP"
    grep -q '"queue\.combine\.quantile\.divided"' "$METRICS_TMP"
    echo "tier-1: metrics smoke OK (grep fallback)"
fi

# Scale smoke: a fast N=10⁴ run (3 DSLAMs) must produce byte-identical
# CLI output across --shards 1 and --shards 2 — the sharding knob is
# worker parallelism only — and its metrics snapshot must show the scale
# engine's events and core packets. (The scale engine runs no calendar;
# the estimator smoke below checks `Network`'s.)
SCALE_METRICS="$TIER1_TMP/scale-metrics.json"
SCALE_OUT1="$TIER1_TMP/scale-out1"
SCALE_OUT2="$TIER1_TMP/scale-out2"
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

# Long-window scale step: N = 10⁵ players over 600 simulated seconds.
# Past its transient each queue repeats every period P (40 ms), so the
# scale engine computes one period and counts the rest; a full-window
# pass would buffer about 24 GB of core hand-offs here. Every client
# sends one packet per period after the 1 s warm-up, so the core count
# must be N·(600 − 1)/P within ±N. No timing floor.
SCALE_LONG_METRICS="$TIER1_TMP/scale-long.json"
./target/release/fpsping-cli sim --scale-n 100000 --shards 1 --sim-seconds 600 \
    --metrics-out "$SCALE_LONG_METRICS" > /dev/null
if command -v python3 >/dev/null 2>&1; then
    python3 - "$SCALE_LONG_METRICS" <<'PY'
import json, sys
packets = json.load(open(sys.argv[1]))["counters"].get("sim.scale.packets", 0)
n, expect = 100_000, 100_000 * (600 - 1) / 0.040
assert abs(packets - expect) <= n, \
    "600 s scale run: %d core packets, want %d within +-%d" % (packets, expect, n)
print("tier-1: long-window scale step OK (%d core packets)" % packets)
PY
else
    grep -q '"sim\.scale\.packets": 149[0-9]\{7\}' "$SCALE_LONG_METRICS"
    echo "tier-1: long-window scale step OK (grep fallback)"
fi

# CLI refusal smoke: hostile input fails loudly. An invalid sweep
# scenario and a sim scenario whose gamer count rounds to 0 are run
# errors (exit 1); a flag that `--scale-n` would ignore,
# the removed `--calendar` flag, a command-level flag that its command
# does not read and a `--sim-seconds` past u64 nanoseconds are parse
# errors (exit 2). Each must print `error:` on stderr and nothing on
# stdout.
REFUSE_OUT="$TIER1_TMP/refuse-out"
REFUSE_ERR="$TIER1_TMP/refuse-err"
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
refuse 1 sim --c-kbps 10 --load 0.4
echo "tier-1: CLI refusal smoke OK (7 hostile invocations refused)"

# Estimator smoke: a 1 000-player run with the per-player RTT estimator
# on must show live traffic.estimator.* counters and the `Network`
# calendar's sim.calendar.enqueues in the metrics JSON, and a pooled p99
# within the documented short-run tolerance of the analytic quantile
# (±20% at ~150 pings/player — the estimator_convergence study shows the
# error collapsing with more pings). FIFO links schedule no completion
# events, so the calendar takes at most 0.65 enqueues per event covered
# (sim.events): an exact count, 0.60 on this run and 1.00 when every link
# completion was an event.
EST_METRICS="$TIER1_TMP/est-metrics.json"
EST_OUT="$TIER1_TMP/est-out"
./target/release/fpsping-cli sim --estimate --gamers 1000 --c-kbps 50000 \
    --sim-seconds 8 --seed 42 --metrics-out "$EST_METRICS" > "$EST_OUT"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$EST_METRICS" "$EST_OUT" <<'PY'
import json, re, sys
counters = json.load(open(sys.argv[1]))["counters"]
matches = counters.get("traffic.estimator.matches", 0)
assert matches > 0, "estimator run recorded no traffic.estimator.matches"
enqueues = counters.get("sim.calendar.enqueues", 0)
events = counters.get("sim.events", 0)
assert enqueues > 0, "estimator run recorded no sim.calendar.enqueues"
assert enqueues <= 0.65 * events, \
    "calendar enqueues %d exceed 0.65 x the %d events covered" % (enqueues, events)
assert counters.get("traffic.estimator.invalid_samples", 1) == 0, \
    "estimator rejected samples in a clean run: %r" % counters
out = open(sys.argv[2]).read()
m = re.search(r"est p99\s*: .* err ([+-][0-9.]+)%", out)
assert m, "no estimator p99 line in CLI output:\n%s" % out
err = float(m.group(1))
assert abs(err) <= 20.0, \
    "estimator p99 off the analytic quantile by %.1f%% (tolerance 20%%)" % err
print("tier-1: estimator smoke OK (%d matches, p99 err %+.2f%%, %.3f enqueues per event)"
      % (matches, err, enqueues / events))
PY
else
    grep -q '"traffic\.estimator\.matches"' "$EST_METRICS"
    grep -q '"sim\.calendar\.enqueues"' "$EST_METRICS"
    grep -q 'est p99' "$EST_OUT"
    echo "tier-1: estimator smoke OK (grep fallback)"
fi

# Dimensioning work gate: the paper example (K = 9, T = 40 ms, 50 ms
# budget) must answer N_max = 82, and its bisection must decide each
# load probe with one tail, not a quantile solve. The gate is an exact
# count of numerical inversions, so host noise cannot move it: 96 with
# tail-decided probes, 1 551 when every probe solved a quantile, 1 when
# the partial fractions served the probes and 0 since the divided
# difference serves the tails they cannot.
DIM_OUT="$TIER1_TMP/dim-out"
DIM_METRICS="$TIER1_TMP/dim-metrics.json"
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
# 0 since the divided difference: a closed form serves every probe's
# tail, and the counter is not recorded.
inversions = counters.get("num.laplace.euler.inversions", 0)
assert inversions < 200, \
    "dimension --budget-ms 50 ran %d numerical inversions (gate: 0..199)" % inversions
print("tier-1: dimensioning gate OK (N_max = 82, %d inversions)" % inversions)
PY
else
    DIM_INVERSIONS="$(sed -n 's/.*"num\.laplace\.euler\.inversions": *\([0-9]*\).*/\1/p' "$DIM_METRICS")"
    if [ -n "$DIM_INVERSIONS" ] && [ "$DIM_INVERSIONS" -ge 200 ]; then
        echo "tier-1: dimension --budget-ms 50 ran '$DIM_INVERSIONS' numerical inversions (gate: 0..199)"
        exit 1
    fi
    echo "tier-1: dimensioning gate OK (grep fallback; ${DIM_INVERSIONS:-0} inversions)"
fi

# The committed metrics example must carry the counters a fresh run of
# its command records, so a counter added, renamed or retired since it
# was generated fails here. Values are not compared.
EXAMPLE_METRICS="$TIER1_TMP/example-metrics.json"
./target/release/fpsping-cli dimension --budget-ms 50 --k 9 \
    --metrics-out "$EXAMPLE_METRICS" > /dev/null
counter_names() {
    sed -n '/"counters": {/,/}/s/^ *"\([^"]*\)": .*/\1/p' "$1"
}
if ! diff <(counter_names results/metrics_example.json) <(counter_names "$EXAMPLE_METRICS"); then
    echo "tier-1: results/metrics_example.json counters differ from a fresh run; regenerate it:"
    echo "  fpsping-cli dimension --budget-ms 50 --k 9 --metrics-out results/metrics_example.json"
    exit 1
fi
echo "tier-1: metrics example OK ($(counter_names results/metrics_example.json | wc -l) counters)"

# The obs-off escape hatch must keep building everywhere it is wired:
# fpsping-bench and fpsping-serve sit at the top of the two dependency
# stacks, so these two cover every crate forwarding the feature. Serve's
# lib tests, decoder proptests and live smoke also run with every metric
# compiled out.
cargo check -q -p fpsping-bench --features obs-off
cargo test -q -p fpsping-serve --features obs-off
echo "tier-1: obs-off builds and serve tests OK"

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
