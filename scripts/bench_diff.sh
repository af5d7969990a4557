#!/usr/bin/env bash
# bench_diff.sh — guard the hot paths against performance regressions.
#
# Runs the pinned hot-path benchmarks fresh, extracts ns/op, and compares
# each against the committed baseline record, BENCH_baseline.json. Exits 1
# if any pinned benchmark regressed by more than THRESHOLD percent
# (default 15), and 2 if the baseline is missing or was recorded with
# different settings. With -record it (re)writes the baseline instead, so
# the baseline and every fresh run come from the same commands.
#
# Usage:
#   scripts/bench_diff.sh [baseline.json]       compare (make bench-diff)
#   scripts/bench_diff.sh -record [out.json]    record (make bench-baseline)
#   THRESHOLD=20 scripts/bench_diff.sh
#
# A record is a `go test -json` event stream headed by two output events:
# the settings (GOMAXPROCS via -cpu, benchtime, count), which must match
# for a comparison to run, and the host (Go version, CPU model), which is
# informational. Benchmarks present fresh but absent from the baseline
# are reported as new and do not fail the check; each side uses its best
# (minimum) ns/op so scheduler noise biases toward stability, and the
# threshold absorbs the rest.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=compare
if [ "${1:-}" = "-record" ]; then
    MODE=record
    shift
fi
BASELINE="${1:-BENCH_baseline.json}"
THRESHOLD="${THRESHOLD:-15}"

# Each benchmark runs COUNT times at a fixed GOMAXPROCS and the comparison
# takes the best run, so a scheduler hiccup in one run cannot fake a
# regression.
CPU=2
BENCHTIME=200x
SERVICE_BENCHTIME=5000x
COUNT=5
SETTINGS="-cpu $CPU -benchtime $BENCHTIME (service $SERVICE_BENCHTIME) -count $COUNT"

# The pinned hot paths: end-to-end analysis, the parse and sync-graph
# stages, analyzer construction (CLG, ordering facts and hypothesis
# tables), the stage cache's warm/cold pair, a report served from the
# replica's cache, and the pooled JSON response writer.
PIN_ROOT='^(BenchmarkEndToEndAnalyze|BenchmarkParse$|BenchmarkSyncGraphBuild|BenchmarkOrderingFacts|BenchmarkStageCacheWarmSecondAlgorithm)'
PIN_SERVICE='^(BenchmarkServiceCacheHit$|BenchmarkWriteJSON)'

header() { # $1 = key, $2 = value; one go test -json style output event
    printf '{"Action":"output","Package":"bench_diff","Output":"%s: %s\\n"}\n' "$1" "$(tr -d '"\\' <<<"$2")"
}

cpu_model() {
    grep -m1 'model name' /proc/cpuinfo 2>/dev/null | sed 's/^[^:]*: *//' || uname -m
}

run_pinned() { # $1 = output file
    {
        header settings "$SETTINGS"
        header host "$(go env GOVERSION), $(cpu_model)"
    } > "$1"
    echo "bench_diff: running pinned benchmarks ($SETTINGS)..." >&2
    go test -run '^$' -bench "$PIN_ROOT" -cpu "$CPU" -benchtime "$BENCHTIME" -count "$COUNT" -json . >> "$1"
    go test -run '^$' -bench "$PIN_SERVICE" -cpu "$CPU" -benchtime "$SERVICE_BENCHTIME" -count "$COUNT" -json ./internal/service >> "$1"
}

# header_value <file> <key> prints a record's header value.
header_value() {
    grep -o "\"Output\":\"$2: [^\"]*" "$1" | head -1 | sed "s/^\"Output\":\"$2: //; s/\\\\n\$//"
}

if [ "$MODE" = record ]; then
    run_pinned "$BASELINE"
    echo "bench_diff: recorded $BASELINE ($(header_value "$BASELINE" host))" >&2
    exit 0
fi

if [ ! -f "$BASELINE" ]; then
    echo "bench_diff: baseline $BASELINE not found (run: make bench-baseline)" >&2
    exit 2
fi
if [ "$(header_value "$BASELINE" settings)" != "$SETTINGS" ]; then
    echo "bench_diff: $BASELINE was recorded with settings '$(header_value "$BASELINE" settings)', not '$SETTINGS'; re-record it (make bench-baseline)" >&2
    exit 2
fi

fresh="$(mktemp)"
trap 'rm -f "$fresh"' EXIT
run_pinned "$fresh"
echo "bench_diff: baseline host $(header_value "$BASELINE" host); this host $(header_value "$fresh" host)" >&2

# extract <name> <ns/op> pairs from a go test -json stream, keeping the
# best (minimum) ns/op per benchmark. A single result line is often split
# across several Output events (the name flushes before the numbers), so
# the stream is reassembled into plain text before line-wise parsing.
extract() {
    grep -o '"Output":"[^"]*"' "$1" |
        sed 's/^"Output":"//; s/"$//' |
        awk 'BEGIN { ORS = "" } { gsub(/\\t/, "\t"); gsub(/\\n/, "\n"); print }' |
        awk '
        $1 ~ /^Benchmark/ {
            name = $1
            sub(/-[0-9]+$/, "", name)
            for (i = 2; i <= NF; i++) {
                if ($i == "ns/op") {
                    v = $(i - 1) + 0
                    if (!(name in best) || v < best[name]) best[name] = v
                }
            }
        }
        END { for (n in best) printf "%s %.2f\n", n, best[n] }'
}

extract "$BASELINE" | sort > "$fresh.base"
extract "$fresh" | sort > "$fresh.new"
trap 'rm -f "$fresh" "$fresh.base" "$fresh.new"' EXIT

awk -v thr="$THRESHOLD" -v basefile="$BASELINE" '
    NR == FNR { base[$1] = $2; next }
    {
        name = $1; new = $2
        if (!(name in base)) {
            printf "  NEW       %-55s %12.0f ns/op (no baseline)\n", name, new
            next
        }
        old = base[name]
        delta = (old > 0) ? (new - old) * 100 / old : 0
        status = "ok"
        if (delta > thr) { status = "REGRESSED"; failed++ }
        printf "  %-9s %-55s %12.0f -> %.0f ns/op (%+.1f%%)\n", status, name, old, new, delta
    }
    END {
        if (failed > 0) {
            printf "bench_diff: %d benchmark(s) regressed more than %s%% vs %s\n", failed, thr, basefile
            exit 1
        }
        print "bench_diff: no regressions beyond " thr "% vs " basefile
    }' "$fresh.base" "$fresh.new"
