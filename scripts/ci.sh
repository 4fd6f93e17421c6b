#!/usr/bin/env bash
# The one-command gate: everything a change must pass before merging.
#
#   1. invariant lint pass (crates/analyzer vs the committed baseline —
#      the analyzer scans its own sources via the `tooling` rule set)
#      plus both bounded protocol model checkers (`--check-protocols`:
#      cluster↔worker supervision and session-KV retention, each proven
#      non-vacuous by seeded mutations)
#   2. release build of the whole workspace
#   3. full test suite (unit + integration, all crates — includes the
#      bounded protocol model checker)
#   4. bit-identical smoke diff against the committed Fig. 11 snapshot
#   5. flight-recorder smoke: a traced CLI run whose Chrome-trace export
#      must pass the schema validator
#   6. metrics-regression gate: a metered 200-request run diffed against
#      the committed metrics.baseline.json (nonzero exit = a gated
#      headline metric drifted beyond its per-metric tolerance; refresh
#      the baseline deliberately when a change is intentional:
#        target/release/tdpipe-cli run --scheduler td --requests 200 \
#          --metrics-out metrics.baseline.json)
#   7. metered run at scale: two identical 100k-request metered runs,
#      each under a 20 s timeout, must metrics-diff clean against each
#      other. The 200-request gate above cannot see a metering cost that
#      grows faster than the run: one such run takes about a second with
#      the one-pass per-stage busy series and over a minute if it goes
#      back to rescanning the timeline per grid window.
#   8. online-sessions smoke: a short Poisson open-loop run and a
#      closed-loop session run (session-KV reuse on) through the CLI;
#      both Chrome-trace exports must pass the schema validator, and two
#      identical metered session runs must metrics-diff clean against
#      each other (the online path is deterministic and the diff tool
#      understands the session counters).
#   9. fleet smoke: a 2-replica heterogeneous (l20+a100) routed run
#      through the CLI with per-replica Chrome-trace exports (both must
#      pass the schema validator), and two identical metered fleet runs
#      that must metrics-diff clean against each other (the fleet router,
#      parallel replica execution, and replica-labelled metrics merge are
#      all deterministic).
#  10. benchmark build: perfbench (its own cargo workspace under
#      perfbench/, the end-to-end and per-layer benchmark BENCHMARK.json
#      declares) is built in release and its tests run, so a library API
#      change that breaks the benchmark fails here. It does NOT gate on
#      times.
#  11. span/bubble attribution smoke: a traced run exporting its raw
#      journal (`--journal-out`), then `span-report` and `bubble-report`
#      over it (plus a 2-replica fleet journal set merged under replica
#      labels); every emitted report must pass its own `--check` schema
#      validator, which re-verifies the exact accounting identities
#      (span components refold to TTFT/latency, attributed bubble
#      seconds refold bit-exactly to total StageIdle per device) and
#      exits 1 on any malformed or tampered report. A 2,000-request
#      offline run repeats the span check at a size where evictions
#      occur, and a 20,000-session closed-loop run (about 44k turns,
#      session-KV reuse on, Poisson arrivals) repeats both checks at ten
#      times that size.
#  12. results regenerate: every figure and ablation binary runs into a
#      temp dir, and each tracked results/ file must come back
#      byte-identical. The binaries are deterministic, so a drifted
#      artifact means a behaviour change that was not refreshed on
#      purpose (the Gantt CSVs fig2_utilization also writes are not
#      tracked, and smoke/ is step 4's).
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n\033[1m== %s ==\033[0m\n' "$1"; }

step "analyze (invariant lint pass + protocol model checkers)"
scripts/analyze.sh

step "build (release)"
# --workspace: a root-only build does not (re)link the bench-crate
# binaries, and steps 4 and 12 run them.
cargo build --release --workspace

step "tests (workspace)"
cargo test --release --workspace -q

step "smoke (bit-identical fig11 snapshot)"
scripts/smoke.sh

step "trace export smoke (schema-valid Chrome trace)"
trace_tmp="$(mktemp -d)"
trap 'rm -rf "$trace_tmp"' EXIT
target/release/tdpipe-cli run --scheduler td --requests 200 \
  --trace-out "$trace_tmp/run.trace.json"
target/release/tdpipe-cli validate-trace --file "$trace_tmp/run.trace.json"

step "metrics-regression gate (vs committed baseline)"
target/release/tdpipe-cli run --scheduler td --requests 200 \
  --metrics-out "$trace_tmp/run.metrics.json"
target/release/tdpipe-cli metrics-diff \
  --baseline metrics.baseline.json --current "$trace_tmp/run.metrics.json"

step "metered run at scale (100k requests, linear-cost metrics)"
for run in a b; do
  timeout 20 target/release/tdpipe-cli run --scheduler td --requests 100000 \
    --metrics-out "$trace_tmp/scale.$run.metrics.json"
done
target/release/tdpipe-cli metrics-diff \
  --baseline "$trace_tmp/scale.a.metrics.json" \
  --current "$trace_tmp/scale.b.metrics.json"

step "online-sessions smoke (poisson arrivals + session-KV reuse)"
target/release/tdpipe-cli run --scheduler td --requests 120 \
  --arrival poisson --rate 24 \
  --trace-out "$trace_tmp/online.trace.json"
target/release/tdpipe-cli validate-trace --file "$trace_tmp/online.trace.json"
target/release/tdpipe-cli run --scheduler td --sessions 48 \
  --arrival poisson --rate 8 --reuse on \
  --trace-out "$trace_tmp/sessions.trace.json"
target/release/tdpipe-cli validate-trace --file "$trace_tmp/sessions.trace.json"
target/release/tdpipe-cli run --scheduler td --sessions 48 \
  --arrival poisson --rate 8 --reuse on \
  --metrics-out "$trace_tmp/sessions.a.metrics.json"
target/release/tdpipe-cli run --scheduler td --sessions 48 \
  --arrival poisson --rate 8 --reuse on \
  --metrics-out "$trace_tmp/sessions.b.metrics.json"
target/release/tdpipe-cli metrics-diff \
  --baseline "$trace_tmp/sessions.a.metrics.json" \
  --current "$trace_tmp/sessions.b.metrics.json"

step "fleet smoke (heterogeneous routed run, traced + deterministic metrics)"
target/release/tdpipe-cli run --requests 120 \
  --arrival poisson --rate 16 \
  --pool l20:1,a100:1 --router kv \
  --trace-out "$trace_tmp/fleet.trace.json"
target/release/tdpipe-cli validate-trace \
  --file "$trace_tmp/fleet.trace.json.r0,$trace_tmp/fleet.trace.json.r1"
target/release/tdpipe-cli run --requests 120 \
  --arrival poisson --rate 16 \
  --pool l20:1,a100:1 --router kv \
  --metrics-out "$trace_tmp/fleet.a.metrics.json"
target/release/tdpipe-cli run --requests 120 \
  --arrival poisson --rate 16 \
  --pool l20:1,a100:1 --router kv \
  --metrics-out "$trace_tmp/fleet.b.metrics.json"
target/release/tdpipe-cli metrics-diff \
  --baseline "$trace_tmp/fleet.a.metrics.json" \
  --current "$trace_tmp/fleet.b.metrics.json"

step "benchmark build (perfbench builds and its tests pass)"
cargo build --release --manifest-path perfbench/Cargo.toml
cargo test --manifest-path perfbench/Cargo.toml -q

step "span/bubble attribution smoke (journal -> reports -> validators)"
target/release/tdpipe-cli run --scheduler td --requests 200 \
  --arrival poisson --rate 24 \
  --journal-out "$trace_tmp/run.journal.json"
target/release/tdpipe-cli span-report \
  --journal "$trace_tmp/run.journal.json" \
  --out "$trace_tmp/run.spans.json" \
  --chrome-out "$trace_tmp/run.spans.trace.json" > /dev/null
target/release/tdpipe-cli span-report --check "$trace_tmp/run.spans.json"
target/release/tdpipe-cli bubble-report \
  --journal "$trace_tmp/run.journal.json" \
  --out "$trace_tmp/run.bubbles.json" > /dev/null
target/release/tdpipe-cli bubble-report --check "$trace_tmp/run.bubbles.json"
target/release/tdpipe-cli validate-trace --file "$trace_tmp/run.spans.trace.json"
# At 2k offline requests some evicted requests' spans only close exactly
# because journal times are snapped to the span grid; 200 is too small
# to show it.
target/release/tdpipe-cli run --scheduler td --requests 2000 --seed 42 \
  --predictor oracle --journal-out "$trace_tmp/run2k.journal.json"
target/release/tdpipe-cli span-report \
  --journal "$trace_tmp/run2k.journal.json" \
  --out "$trace_tmp/run2k.spans.json" > /dev/null
target/release/tdpipe-cli span-report --check "$trace_tmp/run2k.spans.json"
# The exactness claims at 10x that size, through sessions, reuse hits
# and their reclaims.
target/release/tdpipe-cli run --sessions 20000 --arrival poisson --rate 12 \
  --journal-out "$trace_tmp/sess20k.journal.json" > /dev/null
target/release/tdpipe-cli span-report \
  --journal "$trace_tmp/sess20k.journal.json" \
  --out "$trace_tmp/sess20k.spans.json" > /dev/null
target/release/tdpipe-cli span-report --check "$trace_tmp/sess20k.spans.json"
target/release/tdpipe-cli bubble-report \
  --journal "$trace_tmp/sess20k.journal.json" \
  --out "$trace_tmp/sess20k.bubbles.json" > /dev/null
target/release/tdpipe-cli bubble-report --check "$trace_tmp/sess20k.bubbles.json"
# Fleet: per-replica journals merged onto one labelled timeline.
target/release/tdpipe-cli run --requests 120 \
  --arrival poisson --rate 16 \
  --pool l20:1,a100:1 --router kv \
  --journal-out "$trace_tmp/fleet.journal.json"
target/release/tdpipe-cli trace-summary \
  --journal "$trace_tmp/fleet.journal.json.r0,$trace_tmp/fleet.journal.json.r1" \
  --labels l20,a100 > /dev/null
target/release/tdpipe-cli span-report \
  --journal "$trace_tmp/fleet.journal.json.r0,$trace_tmp/fleet.journal.json.r1" \
  --labels l20,a100 \
  --out "$trace_tmp/fleet.spans.json" > /dev/null
target/release/tdpipe-cli span-report --check "$trace_tmp/fleet.spans.json"
target/release/tdpipe-cli bubble-report \
  --journal "$trace_tmp/fleet.journal.json.r0,$trace_tmp/fleet.journal.json.r1" \
  --labels l20,a100 \
  --out "$trace_tmp/fleet.bubbles.json" > /dev/null
target/release/tdpipe-cli bubble-report --check "$trace_tmp/fleet.bubbles.json"

step "results regenerate (every figure and ablation binary vs results/)"
mkdir "$trace_tmp/results"
for src in crates/bench/src/bin/*.rs; do
  env -u TDPIPE_REQUESTS TDPIPE_RESULTS_DIR="$trace_tmp/results" \
    "target/release/$(basename "$src" .rs)" > /dev/null
done
diff -r --exclude=smoke --exclude='fig1_gantt_*' results "$trace_tmp/results"

printf '\nci OK: build + tests + smoke + trace export + metrics gate + metered run at scale + sessions smoke + fleet smoke + benchmark build + span/bubble smoke + results regenerate all green\n'
