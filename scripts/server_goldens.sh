#!/usr/bin/env bash
# Golden-request gate for the pp-server HTTP service.
#
# Boots a release pp-server on loopback, fires the scripted request set —
# a named-protocol run, a formula compile-and-run, a fault ensemble, a
# mean-field query, agents runs on a CSR torus and on an edge-list line,
# a consensus-stop run, and two /v1/stream JSONL runs (sequential and
# batched) — and diffs each response body byte-for-byte against the
# checked-in goldens in tests/goldens/server/ (`.json` for /v1/run,
# `.jsonl` for /v1/stream). Because reports carry
# no wall-clock fields and every request is seeded, the bodies are stable
# across machines, thread counts, and restarts; any diff is a real
# determinism or wire-format regression.
#
# Usage:
#   scripts/server_goldens.sh                 # assert against goldens
#   PP_UPDATE_GOLDENS=1 scripts/server_goldens.sh   # regenerate goldens

set -euo pipefail
cd "$(dirname "$0")/.."

GOLDEN_DIR=tests/goldens/server
ADDR=127.0.0.1:7878
BASE="http://$ADDR"

cargo build --release --bin pp-server

./target/release/pp-server --addr "$ADDR" --threads 2 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT

# Wait for the listener (the binary prints its banner after binding).
for _ in $(seq 1 50); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then
        break
    fi
    sleep 0.1
done
curl -sf "$BASE/healthz" >/dev/null

# The scripted request set. Each entry: golden name + request body; the
# entry's ENDPOINT defaults to /v1/run. Population order is semantic (it
# fixes the interning order, hence the RNG stream) — do not reorder keys
# inside "population".
declare -A REQUESTS
declare -A ENDPOINTS
REQUESTS[protocol_run]='{
    "protocol": {"name": "majority"},
    "population": {"1": 6, "0": 4},
    "seed": 7,
    "engine": "batched",
    "trials": 4,
    "horizon": 30000
}'
REQUESTS[formula_run]='{
    "protocol": {"formula": "a > b"},
    "population": {"a": 6, "b": 4},
    "seed": 42,
    "engine": "batched",
    "trials": 8,
    "horizon": 30000
}'
REQUESTS[fault_ensemble]='{
    "protocol": {"name": "majority"},
    "population": {"1": 6, "0": 4},
    "seed": 11,
    "trials": 4,
    "horizon": 60000,
    "faults": {"crash": [[500, 1]]}
}'
REQUESTS[mean_field]='{
    "protocol": {"name": "majority"},
    "population": {"1": 600, "0": 400},
    "engine": "mean-field",
    "mean_field": {"horizon": 50.0}
}'
REQUESTS[agents_torus]='{
    "protocol": {"name": "majority"},
    "population": {"1": 7, "0": 5},
    "seed": 3,
    "engine": "agents",
    "topology": {"kind": "torus2d", "w": 4, "h": 3},
    "horizon": 200000
}'
REQUESTS[agents_line_ensemble]='{
    "protocol": {"name": "majority"},
    "population": {"1": 5, "0": 3},
    "seed": 13,
    "engine": "agents",
    "topology": {"kind": "line"},
    "trials": 4,
    "horizon": 200000
}'
REQUESTS[agents_complete]='{
    "protocol": {"name": "approximate-majority"},
    "population": {"1": 550, "0": 450},
    "seed": 19,
    "engine": "agents",
    "topology": {"kind": "complete"},
    "horizon": 400000
}'
REQUESTS[agents_formula_torus]='{
    "protocol": {"formula": "x + 3*y > 40"},
    "population": {"x": 30, "y": 34},
    "seed": 23,
    "engine": "agents",
    "topology": {"kind": "torus2d", "w": 8, "h": 8},
    "horizon": 600000
}'
REQUESTS[consensus_run]='{
    "protocol": {"name": "approximate-majority"},
    "population": {"1": 12, "0": 8},
    "seed": 21,
    "stop": "consensus",
    "horizon": 50000
}'
REQUESTS[stream_sequential]='{
    "protocol": {"name": "parity"},
    "population": {"0": 4, "1": 3},
    "seed": 9,
    "horizon": 2000,
    "probe": {"kind": "jsonl", "stride": 10}
}'
ENDPOINTS[stream_sequential]=/v1/stream
REQUESTS[stream_batched_fixed]='{
    "protocol": {"name": "majority"},
    "population": {"1": 60, "0": 40},
    "seed": 5,
    "engine": "batched",
    "stop": "fixed",
    "horizon": 20000,
    "probe": {"kind": "jsonl", "stride": 100}
}'
ENDPOINTS[stream_batched_fixed]=/v1/stream
# Quiescent tails: these three runs stop changing state long before the
# horizon, so they pin the bytes of every field the count engines report
# after the last effective interaction.
REQUESTS[am_batched_quiescent]='{
    "protocol": {"name": "approximate-majority"},
    "population": {"1": 2800, "0": 2200},
    "seed": 31,
    "engine": "batched",
    "horizon": 230000
}'
REQUESTS[count_to_k_quiescent]='{
    "protocol": {"name": "count-to-k", "k": 3},
    "population": {"1": 5, "0": 195},
    "seed": 17,
    "horizon": 20000
}'
REQUESTS[am_batched_ensemble]='{
    "protocol": {"name": "approximate-majority"},
    "population": {"1": 2800, "0": 2200},
    "seed": 5,
    "engine": "batched",
    "trials": 4,
    "horizon": 300000
}'

mkdir -p "$GOLDEN_DIR"
status=0
for name in protocol_run formula_run fault_ensemble mean_field \
    agents_torus agents_line_ensemble agents_complete agents_formula_torus \
    consensus_run \
    stream_sequential stream_batched_fixed \
    am_batched_quiescent count_to_k_quiescent am_batched_ensemble; do
    endpoint=${ENDPOINTS[$name]:-/v1/run}
    got=$(curl -sf -X POST "$BASE$endpoint" \
        -H 'Content-Type: application/json' \
        -d "${REQUESTS[$name]}")
    ext=json
    [ "$endpoint" = /v1/stream ] && ext=jsonl
    golden="$GOLDEN_DIR/$name.$ext"
    if [ "${PP_UPDATE_GOLDENS:-0}" = "1" ]; then
        printf '%s' "$got" > "$golden"
        echo "updated $golden"
    elif [ ! -f "$golden" ]; then
        echo "MISSING golden $golden (run with PP_UPDATE_GOLDENS=1)" >&2
        status=1
    elif printf '%s' "$got" | diff -u "$golden" - >/dev/null; then
        echo "ok $name"
    else
        echo "DIFF in $name:" >&2
        printf '%s' "$got" | diff -u "$golden" - >&2 || true
        status=1
    fi
done

# A second pass over the same set must hit the compile cache without
# moving a byte — replay the formula request and re-diff.
replay=$(curl -sf -X POST "$BASE/v1/run" \
    -H 'Content-Type: application/json' \
    -d "${REQUESTS[formula_run]}")
if [ "${PP_UPDATE_GOLDENS:-0}" != "1" ]; then
    if printf '%s' "$replay" | diff -u "$GOLDEN_DIR/formula_run.json" - >/dev/null; then
        echo "ok formula_run (cache-hit replay)"
    else
        echo "DIFF in formula_run cache-hit replay" >&2
        status=1
    fi
fi

exit "$status"
