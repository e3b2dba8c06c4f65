#!/usr/bin/env bash
# soak-smoke.sh — short SLO-gated soak of a real two-process run, the CI
# smoke for the observability subsystem.
#
# Usage:
#   scripts/soak-smoke.sh                 # ~5s soak with CI-safe gates
#   SOAK_DURATION=30s scripts/soak-smoke.sh
#
# What it proves, end to end:
#   1. recd-serve comes up with -autoscale and an -obs-listen sidecar.
#   2. recd-soak drives mixed-profile load (shared / pooled / think)
#      against the live server and its SLO gates pass: p99 batch wait
#      under SOAK_SLO_P99, aggregate throughput over SOAK_MIN_TPUT,
#      zero session errors.
#   3. The sidecar answers /metrics mid-run, and the final scrape shows
#      nonzero session, cache-hit, scale-event, net-batch, and
#      access-log series (-check-metrics) — the golden-format test pins
#      their names, this pins that a real run moves them.
#   4. A -reconnect soak survives the server being SIGKILLed and
#      restarted mid-run: every stream continues against the new process
#      by deterministic offset replay (the old resume table died with
#      it) with zero stream errors, and the restarted server's
#      recd_replayed_sessions_total is nonzero — the replay counter,
#      not recd_resumed_sessions_total, which only counts parked-token
#      resumes the restarted process cannot serve.
#   5. SIGTERM shuts the (restarted) server down gracefully: it drains,
#      prints its shard stats and the access-log tally, and exits 0.
#   6. Drain handoff: with a two-shard fleet under -reconnect load,
#      SIGTERM on one shard mid-stream hands its active clients a drain
#      notice; they fail over to the surviving shard with zero stream
#      errors, the soak reports nonzero drain handoffs, and the drained
#      server exits 0.
#   7. Live tail: a -follow server hosts the landing writer while two
#      -follow trainers tail the growing table at once, in windows, and
#      drain the remainder after EndFollow. Their tails are ShareScans
#      sessions, so the second to reach a landed file is served the
#      first's decode. Gates: both trainers exit 0 with zero stream
#      errors (any mid-stream error is fatal to them) and print "follow
#      tail ended", and the server's final scrape shows nonzero
#      recd_landed_files_total and recd_scancache_hits_total.
#
# Gates are deliberately loose (CI runners are slow shared machines);
# tighten locally via the SOAK_* variables.
set -euo pipefail
cd "$(dirname "$0")/.."

SOAK_DURATION=${SOAK_DURATION:-5s}
SOAK_KILL_DURATION=${SOAK_KILL_DURATION:-8s}
SOAK_SLO_P99=${SOAK_SLO_P99:-2s}
SOAK_MIN_TPUT=${SOAK_MIN_TPUT:-5}
SOAK_SERVE_ADDR=${SOAK_SERVE_ADDR:-127.0.0.1:7171}
SOAK_SERVE2_ADDR=${SOAK_SERVE2_ADDR:-127.0.0.1:7172}
SOAK_OBS_ADDR=${SOAK_OBS_ADDR:-127.0.0.1:9171}
SOAK_OBS2_ADDR=${SOAK_OBS2_ADDR:-127.0.0.1:9172}
TABLE_FLAGS=(-sessions 60 -batch 64)
# The default table is one 724-row DWRF file (RowsPerFile 4096), which
# rendezvous routing places wholly on one shard — draining the other
# would touch nothing. The drain phase lands ~35k rows (~9 files) so
# both shards deterministically own part of every session's file plan.
DRAIN_TABLE_FLAGS=(-sessions 2500 -batch 64)

bin=$(mktemp -d)
servelog="$bin/serve.log"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$bin"' EXIT

go build -o "$bin/recd-serve" ./cmd/recd-serve
go build -o "$bin/recd-soak" ./cmd/recd-soak

"$bin/recd-serve" -listen "$SOAK_SERVE_ADDR" "${TABLE_FLAGS[@]}" \
    -autoscale -obs-listen "$SOAK_OBS_ADDR" >"$servelog" 2>&1 &
serve_pid=$!

# The soak's own -ready-wait handles server startup; run it with every
# gate armed.
"$bin/recd-soak" -connect "$SOAK_SERVE_ADDR" "${TABLE_FLAGS[@]}" \
    -duration "$SOAK_DURATION" -concurrency 6 \
    -obs-scrape "http://$SOAK_OBS_ADDR" -check-metrics \
    -slo-p99 "$SOAK_SLO_P99" -min-throughput "$SOAK_MIN_TPUT"

# Kill-and-reconnect: a -reconnect soak must ride out the server being
# SIGKILLed and restarted mid-run. The p99 and scrape gates stay off
# (the dead window shows up as batch wait, and a mid-run scrape could
# land on it); the zero-stream-errors gate stays armed — opens that hit
# the dead window are retried and tallied separately.
killlog="$bin/soak-kill.log"
"$bin/recd-soak" -connect "$SOAK_SERVE_ADDR" "${TABLE_FLAGS[@]}" \
    -duration "$SOAK_KILL_DURATION" -concurrency 4 -reconnect \
    >"$killlog" 2>&1 &
soak_pid=$!
sleep 2
kill -KILL "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
"$bin/recd-serve" -listen "$SOAK_SERVE_ADDR" "${TABLE_FLAGS[@]}" \
    -autoscale -obs-listen "$SOAK_OBS_ADDR" >"$servelog" 2>&1 &
serve_pid=$!
if ! wait "$soak_pid"; then
    echo "soak-smoke: reconnect soak did not survive the server restart" >&2
    cat "$killlog" >&2
    exit 1
fi
cat "$killlog"
replayed=$(curl -sf "http://$SOAK_OBS_ADDR/metrics" \
    | awk '$1 ~ /^recd_replayed_sessions_total/ {s+=$2} END {print s+0}')
if [ "${replayed%%.*}" -lt 1 ]; then
    echo "soak-smoke: restarted server replayed no sessions (recd_replayed_sessions_total=$replayed)" >&2
    cat "$servelog" >&2
    exit 1
fi
echo "soak-smoke: restarted server offset-replayed $replayed session(s) across the kill"

# Graceful shutdown: SIGTERM must produce a clean exit and the
# shutdown-time access-log tally.
kill -TERM "$serve_pid"
if ! wait "$serve_pid"; then
    echo "soak-smoke: recd-serve exited nonzero after SIGTERM" >&2
    cat "$servelog" >&2
    exit 1
fi
if ! grep -q "access log: .* opens" "$servelog"; then
    echo "soak-smoke: shutdown output missing the access-log tally" >&2
    cat "$servelog" >&2
    exit 1
fi

# Drain handoff: a two-shard fleet under -reconnect load, SIGTERM on
# shard 2 mid-run. Its in-flight streams get a drain notice and fail
# over to the surviving shard — the soak must finish with zero stream
# errors and report nonzero drain handoffs, and the drained server
# must exit 0.
"$bin/recd-serve" -listen "$SOAK_SERVE_ADDR" "${DRAIN_TABLE_FLAGS[@]}" \
    -autoscale -obs-listen "$SOAK_OBS_ADDR" >"$servelog" 2>&1 &
serve_pid=$!
serve2log="$bin/serve2.log"
"$bin/recd-serve" -listen "$SOAK_SERVE2_ADDR" "${DRAIN_TABLE_FLAGS[@]}" \
    -autoscale -obs-listen "$SOAK_OBS2_ADDR" >"$serve2log" 2>&1 &
serve2_pid=$!
drainlog="$bin/soak-drain.log"
"$bin/recd-soak" -connect "$SOAK_SERVE_ADDR,$SOAK_SERVE2_ADDR" "${DRAIN_TABLE_FLAGS[@]}" \
    -duration "$SOAK_KILL_DURATION" -concurrency 4 -reconnect \
    >"$drainlog" 2>&1 &
soak_pid=$!
# SIGTERM only once the victim shard is mid-session: a fixed sleep can
# land during the table build on a slow runner and drain an idle shard.
active=0
for _ in $(seq 120); do
    active=$(curl -sf "http://$SOAK_OBS2_ADDR/metrics" 2>/dev/null \
        | awk '$1 ~ /^recd_sessions_active/ {s+=$2} END {print s+0}' || true)
    [ "${active:-0}" -ge 1 ] && break
    sleep 0.25
done
if [ "${active:-0}" -lt 1 ]; then
    echo "soak-smoke: victim shard never reported an active session" >&2
    cat "$serve2log" >&2
    exit 1
fi
kill -TERM "$serve2_pid"
if ! wait "$soak_pid"; then
    echo "soak-smoke: fleet soak did not survive the shard drain" >&2
    cat "$drainlog" >&2
    exit 1
fi
cat "$drainlog"
if ! wait "$serve2_pid"; then
    echo "soak-smoke: drained shard exited nonzero" >&2
    cat "$serve2log" >&2
    exit 1
fi
handoffs=$(awk '/drain handoffs/ {print $(NF-2)+0; exit}' "$drainlog")
if [ "${handoffs:-0}" -lt 1 ]; then
    echo "soak-smoke: shard drain produced no handoffs (got ${handoffs:-0})" >&2
    cat "$serve2log" >&2
    exit 1
fi
echo "soak-smoke: $handoffs stream(s) handed off across the shard drain"
kill -TERM "$serve_pid"
wait "$serve_pid" || true

# Live tail: the server hosts the landing writer (-follow), two trainers
# tail the growing table over the wire at the same time. A trainer treats
# any stream error as fatal, so its exit code is the zero-stream-errors
# gate; the sidecar's recd_landed_files_total proves the writer really
# landed, and recd_scancache_hits_total that the two tails shared a decode.
go build -o "$bin/recd-train" ./cmd/recd-train
"$bin/recd-serve" -listen "$SOAK_SERVE_ADDR" "${TABLE_FLAGS[@]}" \
    -follow -flush-interval 150ms -obs-listen "$SOAK_OBS_ADDR" >"$servelog" 2>&1 &
serve_pid=$!
for _ in $(seq 120); do
    curl -sf "http://$SOAK_OBS_ADDR/healthz" >/dev/null 2>&1 && break
    sleep 0.25
done
tail_pids=()
for i in 1 2; do
    "$bin/recd-train" -connect "$SOAK_SERVE_ADDR" -follow -epochs 2 >"$bin/train-tail$i.log" 2>&1 &
    tail_pids+=($!)
done
for i in 1 2; do
    taillog="$bin/train-tail$i.log"
    if ! wait "${tail_pids[$((i - 1))]}"; then
        echo "soak-smoke: live-tail trainer $i hit a stream error" >&2
        cat "$taillog" "$servelog" >&2
        exit 1
    fi
    if ! grep -q "follow tail ended" "$taillog"; then
        echo "soak-smoke: live-tail trainer $i never drained its tail" >&2
        cat "$taillog" >&2
        exit 1
    fi
done
metrics=$(curl -sf "http://$SOAK_OBS_ADDR/metrics")
landed=$(awk '$1 ~ /^recd_landed_files_total/ {s+=$2} END {print s+0}' <<<"$metrics")
if [ "${landed%%.*}" -lt 1 ]; then
    echo "soak-smoke: live-tail server landed no files (recd_landed_files_total=$landed)" >&2
    cat "$servelog" >&2
    exit 1
fi
shared=$(awk '$1 ~ /^recd_scancache_hits_total/ {s+=$2} END {print s+0}' <<<"$metrics")
if [ "${shared%%.*}" -lt 1 ]; then
    echo "soak-smoke: two tailers shared no decode (recd_scancache_hits_total=$shared)" >&2
    cat "$servelog" >&2
    exit 1
fi
cat "$bin/train-tail1.log"
echo "soak-smoke: live tail landed $landed file(s), two tailers shared $shared scan(s), zero stream errors"
kill -TERM "$serve_pid"
wait "$serve_pid" || true

echo "soak-smoke: PASS"
cat "$servelog"
if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
    {
        echo "### Soak smoke"
        echo ""
        echo '```'
        cat "$servelog"
        echo '```'
    } >>"$GITHUB_STEP_SUMMARY"
fi
