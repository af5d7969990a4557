#!/usr/bin/env bash
# E2E fleet-trace smoke: boot a gateway over two real replicas, send one
# analyze through the gateway, and assert the SAME trace id is retained
# in both tiers' /debug/traces — i.e. W3C traceparent propagation and
# cross-process stitching work over real HTTP, not just in-process tests.
# Then send the same analyze twice more: the owning replica answers the
# second from its cache, and the gateway answers the third from its own
# report cache without reaching a replica.
#
# Usage: scripts/trace_smoke.sh [base-port]   (default 18080)
set -euo pipefail

BASE=${1:-18080}
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
echo "== boot 2 replicas, then the gateway"
"$BIN/siwad-server" -addr "127.0.0.1:$R1" -log off &
PIDS+=($!)
"$BIN/siwad-server" -addr "127.0.0.1:$R2" -log off &
PIDS+=($!)
wait_ready "$R1"
wait_ready "$R2"
"$BIN/siwad-gateway" -addr "127.0.0.1:$GW" -log off \
	-backends "http://127.0.0.1:$R1,http://127.0.0.1:$R2" &
PIDS+=($!)

wait_ready "$GW"

# analyze sends the smoke's analyze through the gateway, leaves the
# response body in $BIN/body and prints the response's trace id.
analyze() {
	curl -sfD- -o "$BIN/body" "http://127.0.0.1:$GW/v1/analyze" -d '{
	"source": "task a is begin b.m; accept m; end; task b is begin a.m; accept m; end;"
}' | tr -d '\r' | awk 'tolower($1) == "x-trace-id:" {print $2}'
}

echo "== one analyze through the gateway"
TID=$(analyze)
if ! [[ $TID =~ ^[0-9a-f]{32}$ ]]; then
	echo "FAIL: no X-Trace-Id on the gateway response (got: '$TID')" >&2
	exit 1
fi
echo "   trace id: $TID"

echo "== gateway retained it"
if ! curl -sf "http://127.0.0.1:$GW/debug/traces" | grep -q "$TID"; then
	echo "FAIL: trace id missing from the gateway's /debug/traces" >&2
	exit 1
fi

echo "== serving replica retained the same id"
HITS=0
for port in "$R1" "$R2"; do
	if curl -sf "http://127.0.0.1:$port/debug/traces" | grep -q "$TID"; then
		HITS=$((HITS + 1))
	fi
done
if [ "$HITS" -ne 1 ]; then
	echo "FAIL: trace id retained on $HITS replicas, want exactly 1" >&2
	exit 1
fi

echo "== stitched lookup shows the replica's pipeline under the gateway root"
LOOKUP=$(curl -sf "http://127.0.0.1:$GW/debug/traces/$TID")
for span in "gateway /v1/analyze" "route" "server /v1/analyze"; do
	if ! grep -q "\"$span\"" <<<"$LOOKUP"; then
		echo "FAIL: stitched trace is missing the \"$span\" span" >&2
		echo "$LOOKUP" >&2
		exit 1
	fi
done

echo "== fleet status sees both replicas"
STATUS=$(curl -sf "http://127.0.0.1:$GW/v1/fleet/status")
if ! grep -q '"eligible": *2' <<<"$STATUS"; then
	echo "FAIL: /v1/fleet/status does not report 2 eligible backends" >&2
	echo "$STATUS" >&2
	exit 1
fi

echo "== the same analyze twice more: the gateway answers the third"
analyze >/dev/null
TID3=$(analyze)
if ! grep -q '"cached":true' "$BIN/body"; then
	echo "FAIL: the third answer is not cached" >&2
	cat "$BIN/body" >&2
	exit 1
fi
GWHITS=$(curl -sf "http://127.0.0.1:$GW/metrics" | awk '$1 == "siwa_gateway_report_cache_hits_total" {print $2}')
if [ "$GWHITS" != 1 ]; then
	echo "FAIL: gateway report-cache hits = '$GWHITS', want 1" >&2
	exit 1
fi
for port in "$R1" "$R2"; do
	if curl -sf "http://127.0.0.1:$port/debug/traces" | grep -q "$TID3"; then
		echo "FAIL: replica on port $port retained the gateway-answered trace $TID3" >&2
		exit 1
	fi
done

echo "PASS: one trace id ($TID) across gateway and replica; the third repeat ($TID3) answered by the gateway"
