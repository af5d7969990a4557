#!/usr/bin/env bash
# E2E chaos smoke: boot a gateway over two real replicas, opting in to
# hedging (off by default) with a retry budget sized for the drill, brown
# out the wire to one of them via SIWA_FAULTS network-layer latency
# injection, and assert a client request under a deadline still completes
# fast — i.e. hedged requests route around a slow wire over real HTTP,
# not just in in-process tests — with the hedge visible in the gateway's
# own /metrics, and with neither replica taken out of routing: a hedge's
# cancelled loser is not a transport failure.
#
# Usage: scripts/chaos_smoke.sh [base-port]   (default 18200)
set -euo pipefail

BASE=${1:-18200}
R1=$((BASE + 1)) R2=$((BASE + 2)) GW=$((BASE + 10))
BIN=$(mktemp -d)
PIDS=()
cleanup() {
	for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
	rm -rf "$BIN"
}
trap cleanup EXIT

echo "== build"
go build -o "$BIN/siwad-server" ./cmd/siwad-server
go build -o "$BIN/siwad-gateway" ./cmd/siwad-gateway

wait_ready() {
	for _ in $(seq 1 100); do
		if curl -sf "http://127.0.0.1:$1/readyz" >/dev/null 2>&1; then return 0; fi
		sleep 0.1
	done
	echo "FAIL: port $1 never became ready" >&2
	exit 1
}

# The gateway probes its backends at boot and keeps a replica that is not
# yet listening down until the next health interval, so it starts only
# once both replicas are ready.
echo "== boot 2 replicas, then the gateway (wire to replica 1 browned out 800ms)"
"$BIN/siwad-server" -addr "127.0.0.1:$R1" -log off &
PIDS+=($!)
"$BIN/siwad-server" -addr "127.0.0.1:$R2" -log off &
PIDS+=($!)
wait_ready "$R1"
wait_ready "$R2"
# The host-qualified latency point stalls only bytes toward replica 1;
# the SIWA_FAULTS spec splits on ":", so the host:port is spelled with
# "-" (fault.HostKey). The retry burst is sized so that even if all 12
# requests below hedge (a token each), the bucket never drains to its
# low watermark (burst/2) — at which point hedging would switch itself
# off by design and a browned-owned request would ride out the stall.
SIWA_FAULTS="gateway.net.latency@127.0.0.1-$R1:delay=800ms" \
	"$BIN/siwad-gateway" -addr "127.0.0.1:$GW" -log off \
	-backends "http://127.0.0.1:$R1,http://127.0.0.1:$R2" \
	-hedge-after 95 -retry-budget 0.1 -retry-burst 40 &
PIDS+=($!)

wait_ready "$GW"

echo "== analyzes through the gateway under a 2s deadline budget"
# Health probes go through the same faulted transport, but each 800ms
# stall stays under the 1s probe timeout, so replica 1 stays eligible and
# roughly half of these digests route their primary attempt into the
# browned wire — each of those must be rescued by a hedge. A cold backend
# hedges after the 100ms fallback delay, so every request must finish far
# under the 800ms brownout.
WORST=0
for i in $(seq 2 13); do
	SRC="task t$i is begin u$i.m; accept m; end; task u$i is begin t$i.m; accept m; end;"
	START=$(date +%s%N)
	if ! curl -sf -o /dev/null --max-time 2 "http://127.0.0.1:$GW/v1/analyze" \
		-d "{\"source\": \"$SRC\", \"timeoutMs\": 2000}"; then
		echo "FAIL: analyze $i failed under brownout" >&2
		exit 1
	fi
	MS=$(( ($(date +%s%N) - START) / 1000000 ))
	if [ "$MS" -gt "$WORST" ]; then WORST=$MS; fi
done
echo "   worst request: ${WORST}ms"
if [ "$WORST" -ge 700 ]; then
	echo "FAIL: worst request took ${WORST}ms; hedging did not bound the 800ms brownout" >&2
	exit 1
fi

echo "== gateway metrics show the hedges"
METRICS=$(curl -sf "http://127.0.0.1:$GW/metrics")
HEDGES=$(awk '$1 == "siwa_gateway_hedges_total" {print $2}' <<<"$METRICS")
WINS=$(awk '$1 == "siwa_gateway_hedge_wins_total" {print $2}' <<<"$METRICS")
if [ -z "$HEDGES" ] || [ "$HEDGES" -lt 1 ]; then
	echo "FAIL: siwa_gateway_hedges_total=$HEDGES, want >= 1" >&2
	exit 1
fi
if [ -z "$WINS" ] || [ "$WINS" -lt 1 ]; then
	echo "FAIL: siwa_gateway_hedge_wins_total=$WINS, want >= 1" >&2
	exit 1
fi
if ! grep -q 'siwa_gateway_retry_budget_tokens{scope="global"}' <<<"$METRICS"; then
	echo "FAIL: retry budget gauge missing from /metrics" >&2
	exit 1
fi

echo "== both replicas still take traffic, with no transport failure counted"
# Every hedge cancels its loser; a cancelled send says nothing about the
# replica, so it must neither count as a failure nor take one out.
for R in "$R1" "$R2"; do
	LABEL="{backend=\"http://127.0.0.1:$R\"}"
	UP=$(awk -v k="siwa_gateway_backend_up$LABEL" '$1 == k {print $2}' <<<"$METRICS")
	FAILS=$(awk -v k="siwa_gateway_backend_failures_total$LABEL" '$1 == k {print $2}' <<<"$METRICS")
	if [ "$UP" != 1 ] || [ "$FAILS" != 0 ]; then
		echo "FAIL: replica on port $R: backend_up=$UP failures_total=$FAILS, want 1 and 0" >&2
		exit 1
	fi
done

echo "PASS: $HEDGES hedges ($WINS wins) kept the worst request at ${WORST}ms under an 800ms brownout"
