#!/usr/bin/env bash
# bench_diff.sh — paired performance gate for the pinned hot paths.
#
# Builds the pinned benchmarks twice on this host: once for a base
# revision, checked out in a temporary git worktree, and once for the
# working tree. It then runs the two builds alternately, round by round,
# and compares each pin's ns/op within each round. Exits 1 if any pin's
# median per-round ratio (change over base) exceeds 1 + THRESHOLD/100
# (default 15), and 2 on a usage, build or benchmark error. It also
# prints each pin's median B/op and allocs/op per side (-benchmem); those
# are reported, not gated.
#
# Usage:
#   scripts/bench_diff.sh [rev]          rev defaults to HEAD^ (make bench-diff)
#   scripts/bench_diff.sh HEAD           gate uncommitted work
#   THRESHOLD=20 scripts/bench_diff.sh
#
# In a GitHub pull-request checkout HEAD is the merge commit, whose first
# parent is the target branch tip, so HEAD^ gates the pull request; on a
# push HEAD^ is the previous commit.
#
# Both sides are built with -trimpath, so one commit built from two
# directories gives identical binaries. Each round runs every pin's base
# and change binaries back to back, COUNT times each, each from its own
# package directory, swapping which side goes first on every run; a
# side's figure for a round is its best run. A pinned benchmark the base
# lacks is reported as new and not gated; one the working tree lacks
# fails the gate.
set -euo pipefail
cd "$(dirname "$0")/.."

REV="${1:-HEAD^}"
THRESHOLD="${THRESHOLD:-15}"

# Chosen on a shared 2-vCPU VM so that identical builds pass ten runs in
# a row and a 20% slowdown of one pin fails every run (figures in
# CHANGES.md). A run takes about five minutes there.
ROUNDS=30
BENCHTIME=40ms
COUNT=5
CPU=2

# The pinned hot paths: end-to-end analysis, the parse and sync-graph
# stages, analyzer construction (CLG, ordering facts and hypothesis
# tables), the stage cache's warm/cold pair, a report served from the
# replica's cache, and the pooled JSON response writer.
PIN_ROOT='^(BenchmarkEndToEndAnalyze|BenchmarkParse$|BenchmarkSyncGraphBuild|BenchmarkOrderingFacts|BenchmarkStageCacheWarmSecondAlgorithm)'
PIN_SERVICE='^(BenchmarkServiceCacheHit$|BenchmarkWriteJSON)'
# Each pinned package as "<tag> <directory> <pin regex>"; the tag names
# its test binaries.
PACKAGES=("root . $PIN_ROOT" "service internal/service $PIN_SERVICE")
LIMIT="$(awk -v t="$THRESHOLD" 'BEGIN { print 1 + t / 100 }')"

base_sha="$(git rev-parse --verify --quiet "$REV^{commit}")" || {
    echo "bench_diff: unknown revision $REV" >&2
    exit 2
}

work="$(mktemp -d)"
cleanup() {
    git worktree remove --force "$work/base" >/dev/null 2>&1 || true
    rm -rf "$work"
    git worktree prune
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

start=$SECONDS
echo "bench_diff: base $REV ($(git rev-parse --short "$base_sha")) vs working tree; $(go env GOVERSION), -cpu $CPU, $ROUNDS rounds, best of $COUNT x $BENCHTIME" >&2
git worktree add --quiet --detach "$work/base" "$base_sha"

# build <tree> <side>: one test binary per pinned package.
build() {
    local pkg tag dir regex
    for pkg in "${PACKAGES[@]}"; do
        read -r tag dir regex <<<"$pkg"
        (cd "$1" && go test -c -trimpath -o "$work/$2.$tag.test" "./$dir") || {
            echo "bench_diff: building the $2 side of ./$dir failed" >&2
            exit 2
        }
    done
}
build "$work/base" base
build . change

# Each pin is "<tag> <directory> <benchmark>": every benchmark that either
# side's pin regex matches. Both sides run every pin; a side that lacks
# one runs nothing for it.
pins=()
for pkg in "${PACKAGES[@]}"; do
    read -r tag dir regex <<<"$pkg"
    for name in $( ("$work/base.$tag.test" -test.list "$regex" && "$work/change.$tag.test" -test.list "$regex") | sort -u); do
        pins+=("$tag $dir $name")
    done
done

results="$work/results"
: >"$results"
# run <side> <tree> <round>: runs the pin in $tag, $dir and $name once and
# appends one line per result row, "<row> <side> <round> <ns/op> <B/op>
# <allocs/op>", to $results.
run() {
    local out
    out="$(cd "$2/$dir" && "$work/$1.$tag.test" -test.run '^$' -test.bench "^$name\$" \
        -test.benchtime "$BENCHTIME" -test.cpu "$CPU" -test.benchmem 2>&1)" || {
        printf 'bench_diff: %s side of %s failed:\n%s\n' "$1" "$name" "$out" >&2
        exit 2
    }
    awk -v side="$1" -v round="$3" '
        $1 ~ /^Benchmark/ {
            name = $1
            sub(/-[0-9]+$/, "", name)
            ns = bytes = allocs = ""
            for (i = 2; i <= NF; i++) {
                if ($i == "ns/op") ns = $(i - 1)
                if ($i == "B/op") bytes = $(i - 1)
                if ($i == "allocs/op") allocs = $(i - 1)
            }
            if (ns != "") print name, side, round, ns, bytes, allocs
        }' <<<"$out" >>"$results"
}

for ((round = 1; round <= ROUNDS; round++)); do
    for pin in "${pins[@]}"; do
        read -r tag dir name <<<"$pin"
        for ((k = round; k < round + COUNT; k++)); do
            if ((k % 2)); then
                run base "$work/base" "$round"
                run change . "$round"
            else
                run change . "$round"
                run base "$work/base" "$round"
            fi
        done
    done
    printf . >&2
done
echo >&2

failed=0
awk -v limit="$LIMIT" -v rounds="$ROUNDS" '
    function isort(a, n,    i, j, t) {
        for (i = 2; i <= n; i++) {
            t = a[i]
            for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
            a[j + 1] = t
        }
    }
    # q(a, n, p): the p-quantile of a[1..n] (sorted in place), by linear
    # interpolation between order statistics.
    function q(a, n, p,    h, i) {
        isort(a, n)
        h = (n - 1) * p + 1
        i = int(h)
        return i >= n ? a[n] : a[i] + (h - i) * (a[i + 1] - a[i])
    }
    function summary(a, n) {
        return sprintf("%.0f [%.0f, %.0f]", q(a, n, 0.5), q(a, n, 0.25), q(a, n, 0.75))
    }
    # mem(row, side, f): the median over rounds of memory column f of one
    # side (5 = B/op, 6 = allocs/op), "-" when the benchmark reported none.
    function mem(row, side, f,    k, n, a) {
        n = 0
        for (k = 1; k <= rounds; k++)
            if ((row, side, k, f) in m) a[++n] = m[row, side, k, f]
        return n ? sprintf("%.0f", q(a, n, 0.5)) : "-"
    }
    # report(row): one pinned result row, gated on its median ratio.
    function report(row,    k, nb, nc, nr, slower, b, c, r, ratio, status) {
        nb = nc = nr = slower = 0
        for (k = 1; k <= rounds; k++) {
            if ((row, "base", k) in v) b[++nb] = v[row, "base", k]
            if ((row, "change", k) in v) c[++nc] = v[row, "change", k]
            if ((row, "base", k) in v && (row, "change", k) in v) {
                r[++nr] = v[row, "change", k] / v[row, "base", k]
                if (r[nr] > 1) slower++
            }
        }
        if (nc == 0) {
            printf "  MISSING   %s (in the base run, not in the working tree)\n", row
            failed++
            return
        }
        if (nb == 0) {
            printf "  NEW       %s (no base run; not gated)\n", row
            return
        }
        ratio = q(r, nr, 0.5)
        status = "ok"
        if (ratio > limit) {
            status = "REGRESSED"
            failed++
        }
        printf "  %-9s %s\n", status, row
        printf "            base %s ns/op, change %s ns/op (median [q1, q3])\n", summary(b, nb), summary(c, nc)
        printf "            change slower in %d of %d rounds, median ratio %.3f\n", slower, nr, ratio
        printf "            base %s B/op %s allocs/op, change %s B/op %s allocs/op (medians; not gated)\n", \
            mem(row, "base", 5), mem(row, "base", 6), mem(row, "change", 5), mem(row, "change", 6)
    }
    !($1 in seen) { seen[$1]; rows[++n] = $1 }
    # Each side keeps its best run of the round, and its smallest memory
    # figures.
    !(($1, $2, $3) in v) || $4 + 0 < v[$1, $2, $3] { v[$1, $2, $3] = $4 + 0 }
    $5 != "" && (!(($1, $2, $3, 5) in m) || $5 + 0 < m[$1, $2, $3, 5]) { m[$1, $2, $3, 5] = $5 + 0 }
    $6 != "" && (!(($1, $2, $3, 6) in m) || $6 + 0 < m[$1, $2, $3, 6]) { m[$1, $2, $3, 6] = $6 + 0 }
    END {
        isort(rows, n)
        for (i = 1; i <= n; i++) report(rows[i])
        exit failed ? 1 : 0
    }' "$results" || failed=1

elapsed=$((SECONDS - start))
if ((failed)); then
    echo "bench_diff: FAIL: a pinned benchmark is missing or its median ratio exceeds $LIMIT vs $REV (${elapsed}s)" >&2
    exit 1
fi
echo "bench_diff: ok: every pinned median ratio is within $LIMIT vs $REV (${elapsed}s)" >&2
