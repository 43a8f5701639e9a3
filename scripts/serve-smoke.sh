#!/usr/bin/env bash
# serve-smoke.sh — the live-serving gate: one deterministic arrival trace
# is replayed twice, once in process (dita-sim -stream, which also trains
# and seals the framework artifact) and once over HTTP (dita-sim -stream
# -serve) against a live dita-serve loaded from that artifact, in grid
# mode: due workers, then due tasks, then an explicit instant, per grid
# step. SIGTERM drains the server, which persists its streaming
# assignment CSV atomically, and the two CSVs (at, task, worker, user,
# influence, travel; floats as shortest exact decimals) must be
# byte-identical.
#
# Both binaries are built for the GOARCH in the environment, so
#
#	scripts/serve-smoke.sh               # native
#	GOARCH=386 scripts/serve-smoke.sh    # 32-bit, runs on amd64 hosts
#
# run the same gate on either platform. Run it from the repository root.
# SERVE_SMOKE_PORT (default 8099) picks the server's loopback port.
set -euo pipefail

port="${SERVE_SMOKE_PORT:-8099}"
work="$(mktemp -d)"
pid=""
cleanup() {
	if [ -n "$pid" ]; then kill "$pid" 2>/dev/null || true; fi
	rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/dita-sim" ./cmd/dita-sim
go build -o "$work/dita-serve" ./cmd/dita-serve

"$work/dita-sim" -stream -preset bk -day 25 -train-out "$work/fw.json" -assign-csv "$work/sim.csv" > /dev/null
"$work/dita-serve" -addr "127.0.0.1:$port" -framework "$work/fw.json" -trigger manual -assign-csv "$work/serve.csv" &
pid=$!
for _ in $(seq 1 100); do
	curl -sf "http://127.0.0.1:$port/healthz" > /dev/null && break
	sleep 0.2
done
"$work/dita-sim" -stream -preset bk -day 25 -serve "http://127.0.0.1:$port/v1/default"
kill -TERM "$pid"
wait "$pid"
pid=""
cmp "$work/sim.csv" "$work/serve.csv"
echo "serve smoke: $(wc -l < "$work/sim.csv") CSV lines identical ($(go env GOARCH))"
