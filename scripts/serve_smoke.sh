#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke of the pccserve daemon.
#
# Builds pccserve and pccbench, starts the daemon on a scratch port with a
# scratch cache, POSTs a small parklot sweep, and asserts:
#
#   1. the streamed report equals a direct pccbench run of the same unit
#      (the daemon serves exactly what the CLI computes),
#   2. re-POSTing the identical sweep returns a byte-identical body and the
#      second serve was a cache hit (/v1/stats),
#   3. a third POST is byte-identical again and came from the cache's memory
#      tier (the second, a verified disk read, admitted it),
#   4. SIGTERM drains: readyz flips to 503 and the process exits 0.
#
# Usage: scripts/serve_smoke.sh [SCALE]   # default scale 0.05
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${1:-0.05}"
SEED=42
PORT="${PORT:-18080}"
TMP="$(mktemp -d)"
trap 'kill "$SRV_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

go build -o "$TMP/pccserve" ./cmd/pccserve
go build -o "$TMP/pccbench" ./cmd/pccbench

"$TMP/pccserve" -addr "127.0.0.1:$PORT" -cachedir "$TMP/cache" &
SRV_PID=$!

# Wait for readiness.
for _ in $(seq 1 100); do
    if curl -fsS "http://127.0.0.1:$PORT/readyz" > /dev/null 2>&1; then
        break
    fi
    sleep 0.1
done
curl -fsS "http://127.0.0.1:$PORT/readyz" > /dev/null

REQ="{\"experiments\":[\"parklot\"],\"scales\":[$SCALE],\"seeds\":[$SEED]}"
curl -fsS -N -X POST -d "$REQ" "http://127.0.0.1:$PORT/v1/sweep" > "$TMP/sweep1.ndjson"
curl -fsS -N -X POST -d "$REQ" "http://127.0.0.1:$PORT/v1/sweep" > "$TMP/sweep2.ndjson"
curl -fsS -N -X POST -d "$REQ" "http://127.0.0.1:$PORT/v1/sweep" > "$TMP/sweep3.ndjson"

# 1. Served report == direct pccbench run. pccbench appends a "(exp in Ns)"
# timing line the server intentionally omits; strip it before comparing.
"$TMP/pccbench" -exp parklot -scale "$SCALE" -seed "$SEED" \
    | sed '/^(parklot in /d' | sed '/^$/d' > "$TMP/direct.txt"
python3 - "$TMP/sweep1.ndjson" "$TMP/direct.txt" <<'EOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert lines[-1].get("done") is True, f"sweep did not finish: {lines[-1]}"
served = lines[0]["report"].rstrip("\n")
direct = open(sys.argv[2]).read().rstrip("\n")
assert served == direct, "served report differs from direct pccbench run:\n%s\n---\n%s" % (served, direct)
print("served report matches direct pccbench run")
EOF

# 2. Byte-identical re-serve, from cache.
cmp "$TMP/sweep1.ndjson" "$TMP/sweep2.ndjson"
echo "repeated sweep is byte-identical"
HITS=$(curl -fsS "http://127.0.0.1:$PORT/v1/stats" | python3 -c 'import json,sys; print(json.load(sys.stdin)["cache"]["hits"])')
if [ "$HITS" -lt 1 ]; then
    echo "serve_smoke.sh: second sweep was not served from cache (hits=$HITS)" >&2
    exit 1
fi
echo "second sweep came from the cache (hits=$HITS)"

# 3. Third serve: byte-identical, from memory.
cmp "$TMP/sweep1.ndjson" "$TMP/sweep3.ndjson"
MEM_HITS=$(curl -fsS "http://127.0.0.1:$PORT/v1/stats" | python3 -c 'import json,sys; print(json.load(sys.stdin)["cache"]["mem_hits"])')
if [ "$MEM_HITS" -lt 1 ]; then
    echo "serve_smoke.sh: third sweep was not served from the memory tier (mem_hits=$MEM_HITS)" >&2
    exit 1
fi
echo "third sweep is byte-identical and came from memory (mem_hits=$MEM_HITS)"

# 4. SIGTERM drain: readyz goes 503, process exits 0.
kill -TERM "$SRV_PID"
for _ in $(seq 1 50); do
    CODE=$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$PORT/readyz" || echo down)
    [ "$CODE" != "200" ] && break
    sleep 0.1
done
if wait "$SRV_PID"; then
    echo "pccserve drained and exited 0"
else
    echo "serve_smoke.sh: pccserve exited non-zero on SIGTERM" >&2
    exit 1
fi
