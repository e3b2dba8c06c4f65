#!/usr/bin/env bash
# bench.sh — run the hot-path benchmark set and gate against the committed
# baseline.
#
# Usage:
#   scripts/bench.sh                      # run + compare against benchmarks/baseline.txt
#   BENCH_MAX_REGRESSION_PCT=10 scripts/bench.sh
#   BENCH_COUNT=5 scripts/bench.sh       # more -count repetitions for stability
#
# The gate fails (exit 1) if any benchmark's ns/op regresses more than
# BENCH_MAX_REGRESSION_PCT percent (default 20) versus the baseline, or if
# allocs/op regresses at all beyond the allowed percentage. New benchmarks
# absent from the baseline are reported but never fail the gate; promote
# them with scripts/bench-update.sh.
#
# It also gates cross-session scan sharing: BenchmarkUnsharedSessions
# ns/op divided by BenchmarkSharedSessions ns/op (two same-spec sessions,
# decoded twice vs once) must be at least BENCH_MIN_SHARED_RATIO (default
# 1.5). The measured ratio is printed, and appended to the CI job summary
# when GITHUB_STEP_SUMMARY is set.
#
# Reader autoscaling is gated the same way: BenchmarkStaticStalledConsumer
# ns/op divided by BenchmarkAutoscaledStalledConsumer ns/op must be at
# least BENCH_MIN_AUTOSCALE_RATIO. On the 1-CPU baseline runner extra
# workers cannot buy wall time, so this is a parity gate — autoscaled must
# match static (1.0x nominal; the default 0.9 allows scheduler noise) —
# proving the controller itself is free. When a multicore baseline lands,
# raise the gate to the real speedup.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_PATTERN=${BENCH_PATTERN:-'BenchmarkIKJTConversion$|BenchmarkJaggedIndexSelect$|BenchmarkJaggedIndexSelectAlloc$|BenchmarkIKJTToKJTRoundTrip$|BenchmarkDWRFWriteClustered$|BenchmarkReaderTier$|BenchmarkServiceSession$|BenchmarkRemoteSession$|BenchmarkSharedSessions$|BenchmarkUnsharedSessions$|BenchmarkStaticStalledConsumer$|BenchmarkAutoscaledStalledConsumer$|BenchmarkShardedFleet1$|BenchmarkShardedFleet2$|BenchmarkShardedFleet4$|BenchmarkFleetFirstBatch$|BenchmarkPipelineEndToEnd$|BenchmarkCacheGetHit$|BenchmarkCacheCyclicOvercommit$|BenchmarkChainStep$|BenchmarkBatchFrameHop$|BenchmarkStripeColumns$'}
BENCH_COUNT=${BENCH_COUNT:-1}
MAX_PCT=${BENCH_MAX_REGRESSION_PCT:-20}
BASELINE=${BENCH_BASELINE:-benchmarks/baseline.txt}
LATEST=${BENCH_LATEST:-benchmarks/latest.txt}

mkdir -p "$(dirname "$LATEST")"
# The root package holds the pipeline benchmarks; internal/cachecore holds
# the cache engine's (the hit path every warm batch takes, at 0 allocs/op,
# and a cyclic scan over an undersized cache, which reports computes/pass);
# internal/dpp/dppnet holds the wire's per-layer pair (the stream hash, at
# 0 allocs/op, and one batch's encode → frame → read → verify → decode hop,
# which reports ns/row); internal/dwrf holds the fill's decode unit with no
# store and no fetch model around it (one 128-row stripe of the ladder's
# table, full and 5-of-25 projection, which reports ns/row).
go test -run '^$' -bench "$BENCH_PATTERN" -benchmem -count "$BENCH_COUNT" . ./internal/cachecore/ ./internal/dpp/dppnet/ ./internal/dwrf/ | tee "$LATEST"

# --- Cross-session scan-sharing gate: two same-spec sessions through the
# ScanCache must beat two uncached sessions by at least
# BENCH_MIN_SHARED_RATIO in aggregate ns/op (ISSUE 3 criterion: >= 1.5x
# aggregate throughput). Computed from this run, not the baseline, so the
# gate holds on every machine the benchmarks actually ran on.
MIN_SHARED_RATIO=${BENCH_MIN_SHARED_RATIO:-1.5}
awk -v min="$MIN_SHARED_RATIO" '
    /^BenchmarkSharedSessions/   { for (i = 2; i < NF; i++) if ($(i+1) == "ns/op" && ($i + 0 < shared || !shared)) shared = $i + 0 }
    /^BenchmarkUnsharedSessions/ { for (i = 2; i < NF; i++) if ($(i+1) == "ns/op" && ($i + 0 < unshared || !unshared)) unshared = $i + 0 }
    END {
        if (!shared || !unshared) {
            print "bench: shared-session ratio not measured (pattern excluded the session pair)"
            exit 0
        }
        ratio = unshared / shared
        printf "bench: shared-vs-unshared sessions: %.0f / %.0f ns/op = %.2fx aggregate throughput (gate %.2fx)\n", unshared, shared, ratio, min
        summary = ENVIRON["GITHUB_STEP_SUMMARY"]
        if (summary != "") {
            printf "### Cross-session scan sharing\n\n| sessions | ns/op |\n|---|---|\n| 2 unshared | %.0f |\n| 2 shared (ScanCache) | %.0f |\n\n**%.2fx** aggregate throughput (gate: >= %.2fx)\n", unshared, shared, ratio, min >> summary
        }
        if (ratio < min) {
            printf "bench: FAIL — shared sessions only %.2fx faster, need %.2fx\n", ratio, min
            exit 1
        }
    }
' "$LATEST"

# --- Network-boundary overhead gate: a session pulled through the
# dppnet TCP transport on loopback (BenchmarkRemoteSession) may cost at
# most BENCH_MAX_REMOTE_OVERHEAD_PCT percent more than the same scan
# through an in-process session (BenchmarkServiceSession). Same-run
# ratio, so host speed cancels out.
MAX_REMOTE_PCT=${BENCH_MAX_REMOTE_OVERHEAD_PCT:-25}
awk -v max="$MAX_REMOTE_PCT" '
    /^BenchmarkServiceSession/ { for (i = 2; i < NF; i++) if ($(i+1) == "ns/op" && ($i + 0 < local || !local)) local = $i + 0 }
    /^BenchmarkRemoteSession/  { for (i = 2; i < NF; i++) if ($(i+1) == "ns/op" && ($i + 0 < remote || !remote)) remote = $i + 0 }
    END {
        if (!local || !remote) {
            print "bench: remote-session overhead not measured (pattern excluded the session pair)"
            exit 0
        }
        pct = (remote - local) / local * 100
        printf "bench: remote vs local session: %.0f / %.0f ns/op = %+.1f%% loopback overhead (gate %.0f%%)\n", remote, local, pct, max
        summary = ENVIRON["GITHUB_STEP_SUMMARY"]
        if (summary != "") {
            printf "### Network service boundary\n\n| session | ns/op |\n|---|---|\n| local (in-process) | %.0f |\n| remote (dppnet loopback) | %.0f |\n\n**%+.1f%%** loopback overhead (gate: <= %.0f%%)\n", local, remote, pct, max >> summary
        }
        if (pct > max) {
            printf "bench: FAIL — remote session %.1f%% slower than local, cap %.0f%%\n", pct, max
            exit 1
        }
    }
' "$LATEST"

# --- Sharded-fleet capacity gate: the same multi-epoch scan over two
# preprocessing shards (BenchmarkShardedFleet2) must beat one shard
# (BenchmarkShardedFleet1) by at least BENCH_MIN_SHARD_SCALING. The
# per-shard ScanCache is budgeted at a nominal 3/4 of the table: one shard
# keeps the 8 of 16 files that fit and re-decodes the other 8 every epoch
# (it does not thrash — cachecore stops evicting once it re-misses what
# it evicted), while two shards' summed (rendezvous-partitioned) capacity
# holds all 16 — the win is additive cache, all of the table against the
# part one shard holds, not parallelism, which is why it gates cleanly
# on the 1-CPU runner. Same-run ratio.
MIN_SHARD_SCALING=${BENCH_MIN_SHARD_SCALING:-1.3}
awk -v min="$MIN_SHARD_SCALING" '
    /^BenchmarkShardedFleet1[^0-9]/ { for (i = 2; i < NF; i++) if ($(i+1) == "ns/op" && ($i + 0 < one || !one)) one = $i + 0 }
    /^BenchmarkShardedFleet2[^0-9]/ { for (i = 2; i < NF; i++) if ($(i+1) == "ns/op" && ($i + 0 < two || !two)) two = $i + 0 }
    END {
        if (!one || !two) {
            print "bench: shard-scaling ratio not measured (pattern excluded the fleet pair)"
            exit 0
        }
        ratio = one / two
        printf "bench: 2-shard vs 1-shard fleet: %.0f / %.0f ns/op = %.2fx aggregate throughput (gate %.2fx)\n", one, two, ratio, min
        summary = ENVIRON["GITHUB_STEP_SUMMARY"]
        if (summary != "") {
            printf "### Sharded preprocessing fleet\n\n| shards | ns/op |\n|---|---|\n| 1 (cache holds 8 of 16 files) | %.0f |\n| 2 (fleet cache fits) | %.0f |\n\n**%.2fx** aggregate throughput (gate: >= %.2fx; per-shard cache fixed at 3/4 table)\n", one, two, ratio, min >> summary
        }
        if (ratio < min) {
            printf "bench: FAIL — 2-shard fleet only %.2fx faster than 1 shard, need %.2fx\n", ratio, min
            exit 1
        }
    }
' "$LATEST"

# --- Autoscaling parity gate: a session whose worker pool is resized
# live by the AutoScaler (BenchmarkAutoscaledStalledConsumer) must not
# lose wall time against the same scan with a static pool
# (BenchmarkStaticStalledConsumer). Same-run ratio; on the 1-CPU runner
# this pins "the controller is free" (parity), not a speedup — see the
# header comment.
MIN_AUTOSCALE_RATIO=${BENCH_MIN_AUTOSCALE_RATIO:-0.9}
awk -v min="$MIN_AUTOSCALE_RATIO" '
    /^BenchmarkStaticStalledConsumer/     { for (i = 2; i < NF; i++) if ($(i+1) == "ns/op" && ($i + 0 < static || !static)) static = $i + 0 }
    /^BenchmarkAutoscaledStalledConsumer/ { for (i = 2; i < NF; i++) if ($(i+1) == "ns/op" && ($i + 0 < scaled || !scaled)) scaled = $i + 0 }
    END {
        if (!static || !scaled) {
            print "bench: autoscale ratio not measured (pattern excluded the stalled-consumer pair)"
            exit 0
        }
        ratio = static / scaled
        printf "bench: autoscaled vs static stalled-consumer session: %.0f / %.0f ns/op = %.2fx (gate %.2fx; 1.0x = parity)\n", static, scaled, ratio, min
        summary = ENVIRON["GITHUB_STEP_SUMMARY"]
        if (summary != "") {
            printf "### Reader autoscaling\n\n| session | ns/op |\n|---|---|\n| static 4-worker pool | %.0f |\n| autoscaled pool (1-4) | %.0f |\n\n**%.2fx** static/autoscaled (gate: >= %.2fx; parity on the 1-CPU runner)\n", static, scaled, ratio, min >> summary
        }
        if (ratio < min) {
            printf "bench: FAIL — autoscaled session %.2fx of static, need %.2fx\n", ratio, min
            exit 1
        }
    }
' "$LATEST"

if [[ ! -f "$BASELINE" ]]; then
    echo "bench: no baseline at $BASELINE — run scripts/bench-update.sh to create one" >&2
    exit 0
fi

awk -v max="$MAX_PCT" '
    # Collect the best (minimum) ns/op and allocs/op per benchmark name,
    # so -count > 1 runs gate on the least-noisy sample.
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)   # strip GOMAXPROCS suffix
        ns = ""; allocs = ""
        for (i = 2; i < NF; i++) {
            if ($(i+1) == "ns/op") ns = $i
            if ($(i+1) == "allocs/op") allocs = $i
        }
        if (ns == "") next
        if (FNR == NR) {
            if (!(name in base_ns) || ns + 0 < base_ns[name]) {
                base_ns[name] = ns + 0
                base_allocs[name] = allocs + 0
            }
        } else {
            seen[name] = 1
            if (!(name in latest_ns) || ns + 0 < latest_ns[name]) {
                latest_ns[name] = ns + 0
                latest_allocs[name] = allocs + 0
            }
        }
    }
    END {
        fail = 0
        printf "%-36s %14s %14s %9s\n", "benchmark", "baseline ns/op", "latest ns/op", "delta"
        for (name in seen) {
            if (!(name in base_ns)) {
                printf "%-36s %14s %14.0f %9s\n", name, "(new)", latest_ns[name], "-"
                continue
            }
            pct = (latest_ns[name] - base_ns[name]) / base_ns[name] * 100
            mark = ""
            if (pct > max) { mark = "  << REGRESSION"; fail = 1 }
            printf "%-36s %14.0f %14.0f %+8.1f%%%s\n", name, base_ns[name], latest_ns[name], pct, mark
            # A zero-alloc baseline is a hard contract: any alloc at all
            # regresses it. Non-zero baselines get the percentage gate.
            if ((base_allocs[name] == 0 && latest_allocs[name] > 0) ||
                (base_allocs[name] > 0 && latest_allocs[name] > base_allocs[name] * (1 + max / 100))) {
                printf "%-36s allocs/op %.0f -> %.0f  << ALLOC REGRESSION\n", name, base_allocs[name], latest_allocs[name]
                fail = 1
            }
        }
        missing = 0
        for (name in base_ns) {
            if (!(name in seen)) {
                printf "%-36s %14.0f %14s %9s  (baseline entry uncompared)\n", name, base_ns[name], "(absent)", "-"
                missing = 1
            }
        }
        if (missing) {
            printf "bench: WARNING — baseline entries missing from this run (narrowed BENCH_PATTERN, or a renamed/deleted benchmark that needs scripts/bench-update.sh)\n"
        }
        if (fail) {
            printf "bench: FAIL — regression beyond %s%% versus baseline\n", max
            exit 1
        }
        printf "bench: OK (gate %s%%)\n", max
    }
' "$BASELINE" "$LATEST"
