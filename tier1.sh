#!/bin/sh
# Tier-1 gate: everything here must pass before a change lands.
set -eu
cd "$(dirname "$0")"

# phase NAME announces a phase and prints the wall seconds of the one before.
t0=$(date +%s)
tp=$t0
started=
phase() {
    now=$(date +%s)
    [ -z "$started" ] || echo "   ($((now - tp)) s)"
    started=1
    tp=$now
    echo "== $1"
}

phase 'gofmt -l'
fmt_out=$(gofmt -l .)
if [ -n "$fmt_out" ]; then
    echo "gofmt: files need formatting:" >&2
    echo "$fmt_out" >&2
    exit 1
fi
phase 'one queue primitive (no .go file imports internal/dlist or container/list)'
if bad=$(grep -rlE --include='*.go' '"(repro/internal/dlist|container/list)"' .); then
    echo "linked lists beside internal/slab:" >&2
    echo "$bad" >&2
    exit 1
fi
phase 'one way to reach a backend (no non-test file in internal/cluster but endpoint.go names server.Dial or server.DialWithConfig)'
if bad=$(grep -lE 'server\.Dial(WithConfig)?\b' internal/cluster/*.go | grep -v -e '_test\.go$' -e '/endpoint\.go$'); then
    echo "backend dials outside internal/cluster/endpoint.go:" >&2
    echo "$bad" >&2
    exit 1
fi
phase 'no build output checked in (no tracked file over 1 MiB or starting with the ELF magic)'
git ls-files | while IFS= read -r f; do
    [ -f "$f" ] || continue   # deleted in the working tree, not yet committed
    if [ "$(wc -c < "$f")" -gt 1048576 ]; then
        echo "tracked file over 1 MiB: $f" >&2
        exit 1
    fi
    if [ "$(head -c 4 "$f" | od -An -c | tr -d ' ')" = '177ELF' ]; then
        echo "tracked ELF binary: $f" >&2
        exit 1
    fi
done
phase 'go vet ./...'
go vet ./...
phase 'go build ./...'
go build ./...
phase 'trace identity (fingerprints + Zipf exactness): the keys of every family at seeds 1 and 3 hash as pinned, the guide table finds the rank binary search finds, key counting matches Go maps'
go test -count=1 -run 'TestTraceFingerprints|TestZipfStreamFingerprints|TestZipfGuideExact|TestGenerateTinyCatalogs' ./internal/workload/
go test -count=1 -run 'TestKeyTableAgainstMap|TestCountingAgainstMaps' ./internal/trace/
phase 'go test ./... (incl. both golden tables in internal/policy/all: registry hit counts, byte-capped object and byte hit counts)'
go test ./...
phase 'exported-name census (exported names in internal/... that nothing outside their package names; fails above the checked-in count)'
census=$(go test -count=1 -v -run 'TestExportCensus$' ./internal/census/) || { echo "$census" >&2; exit 1; }
echo "$census" | grep 'census:'
phase 'go test ./... (benchmark/: a nested module root go test skips, built against the packages above)'
(cd benchmark && go test ./...)
phase 'go test -race (concurrent incl. the KV model test and hammer + server + obs + chaos + cluster)'
go test -race ./internal/concurrent/... ./internal/server/... ./internal/obs/... ./internal/chaos/... ./internal/cluster/...
phase 'flake guard (graceful drain, 10 runs under -race: it once failed 1 run in 25-300)'
go test -race -count=10 -run 'TestServerGracefulShutdownDrains$' ./internal/server/
phase 'flake guard (chaos proxy byte preservation, 50 runs: it once failed about 1 run in 15, when every per-op fault draw came up clean)'
go test -count=50 -run 'TestProxyLatencyAndFragmentationPreserveBytes$' ./internal/chaos/
phase 'alloc guard (tracing disabled = 0 allocs, sampling on <= 1, multi-key get = 0, batched pipeline incl. multi-key and split gets = 0, ring lookup = 0)'
go test -run 'TestServerGetHitPathZeroAllocsWithRecorder|TestServerGetHitPathAllocsWithSampling|TestServerGetHitPathZeroAllocsWithMRCSampling|TestServerMultiGetPathZeroAllocs|TestServerBatchedPipelineZeroAllocs' ./internal/server/
go test -run 'TestRingLookupZeroAllocs' ./internal/cluster/
phase 'alloc guard (byte accounting + TTL wheel + MRC sampler keep the hit paths at 0 allocs; an evicting set allocates nothing) + buffer classes (eighth-step ladder; resident buffers within 9/8 of key+value)'
go test -run 'TestKVGetZeroAllocs|TestKVAppendHitZeroAllocs|TestKVGetMultiZeroAllocs|TestKVByteModeTTLZeroAllocs|TestKVGetZeroAllocsWithSampler|TestKVSetZeroAllocsSteadyState|TestBufClassLadder|TestKVBufferFootprint' ./internal/concurrent/
phase 'alloc guard (every registered simulator policy: 0 allocs per Access at steady state, or its stated budget; a Zipf draw allocates nothing)'
go test -run 'TestSimPoliciesZeroAllocsSteadyState' ./internal/policy/all/
go test -run 'TestZipfNextZeroAllocs' ./internal/workload/
phase 'bench smoke (one iteration per benchmark)'
go test -bench=. -benchtime=1x -run='^$' ./... > /dev/null
phase 'throughput sweep smoke (one point)'
go run ./cmd/throughput -cores 2 -caches sieve -ops 65536 -keyspace 16384 -json - > /dev/null
phase 'events endpoint smoke (cacheserver + cacheload + /debug/events)'
tmpdir=$(mktemp -d)
# Every server started below appends its pid; most are already gone (killed
# as their section ends) when the trap runs, which must not fail the script.
pids=""
trap 'kill $pids 2>/dev/null || true; rm -rf "$tmpdir"' EXIT
go build -o "$tmpdir/cacheserver" ./cmd/cacheserver
go build -o "$tmpdir/cacheload" ./cmd/cacheload
"$tmpdir/cacheserver" -addr 127.0.0.1:21311 -admin-addr 127.0.0.1:21312 \
    -max-entries 16384 -shards 8 -events 16384 -trace-sample 8 \
    -log-level warn > "$tmpdir/server.log" 2>&1 &
srv_pid=$!
pids="$pids $srv_pid"
i=0
until curl -fsS http://127.0.0.1:21312/healthz > /dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "cacheserver did not become healthy" >&2
        cat "$tmpdir/server.log" >&2
        exit 1
    fi
    sleep 0.1
done
"$tmpdir/cacheload" -addr 127.0.0.1:21311 -conns 2 -ops 20000 -keyspace 8192 > /dev/null
curl -fsS http://127.0.0.1:21312/debug/events > "$tmpdir/events.txt"
grep -q 'kind=' "$tmpdir/events.txt" \
    || { echo "/debug/events carried no lifecycle events" >&2; exit 1; }
curl -fsS 'http://127.0.0.1:21312/debug/events?format=json' > "$tmpdir/events.json"
grep -q '"spans_total"' "$tmpdir/events.json" \
    || { echo "/debug/events json missing span counters" >&2; exit 1; }
phase 'chaos soak smoke (cacheload -chaos against the live server)'
"$tmpdir/cacheload" -addr 127.0.0.1:21311 -conns 2 -ops 20000 -keyspace 8192 \
    -chaos 'seed=7,refuse=0.02,latency=500us,latency-p=0.05,partial=0.05,reset=0.002' \
    > "$tmpdir/chaosload.txt"
grep -q 'chaos faults injected' "$tmpdir/chaosload.txt" \
    || { echo "chaos run reported no fault counters" >&2; exit 1; }
curl -fsS http://127.0.0.1:21312/healthz > /dev/null \
    || { echo "server unhealthy after chaos soak" >&2; exit 1; }
curl -fsS http://127.0.0.1:21312/metrics > "$tmpdir/metrics.txt"
grep -q '^cache_server_panics_total 0$' "$tmpdir/metrics.txt" \
    || { echo "cache_server_panics_total != 0 after chaos soak" >&2; exit 1; }
kill "$srv_pid"
phase 'cluster smoke (3 nodes + router, healthz everywhere, routed counters move)'
for n in 1 2 3; do
    "$tmpdir/cacheserver" -addr 127.0.0.1:$((21320 + n)) -admin-addr 127.0.0.1:$((21330 + n)) \
        -max-entries 16384 -shards 8 -log-level warn > "$tmpdir/node$n.log" 2>&1 &
    pids="$pids $!"
done
"$tmpdir/cacheserver" -addr 127.0.0.1:21320 -admin-addr 127.0.0.1:21330 \
    -route 127.0.0.1:21321,127.0.0.1:21322,127.0.0.1:21323 \
    -replicas 2 -hot-threshold 4 -log-level warn > "$tmpdir/router.log" 2>&1 &
pids="$pids $!"
for p in 21330 21331 21332 21333; do
    i=0
    until curl -fsS "http://127.0.0.1:$p/healthz" > /dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 50 ]; then
            echo "cluster node admin :$p did not become healthy" >&2
            cat "$tmpdir"/node*.log "$tmpdir/router.log" >&2
            exit 1
        fi
        sleep 0.1
    done
done
"$tmpdir/cacheload" -addr 127.0.0.1:21320 -conns 2 -ops 20000 -keyspace 4096 > /dev/null
curl -fsS http://127.0.0.1:21330/cluster > "$tmpdir/cluster.txt"
grep -q 'routed_get=[1-9]' "$tmpdir/cluster.txt" \
    || { echo "/cluster shows no routed gets after load" >&2; cat "$tmpdir/cluster.txt" >&2; exit 1; }
grep -Eq 'cluster nodes=3' "$tmpdir/cluster.txt" \
    || { echo "/cluster does not report 3 nodes" >&2; cat "$tmpdir/cluster.txt" >&2; exit 1; }
"$tmpdir/cacheload" -servers 127.0.0.1:21321,127.0.0.1:21322,127.0.0.1:21323 \
    -conns 2 -ops 10000 -keyspace 4096 > /dev/null
for p in 21330 21331 21332 21333; do
    curl -fsS "http://127.0.0.1:$p/healthz" > /dev/null \
        || { echo "node admin :$p unhealthy after cluster load" >&2; exit 1; }
done
phase 'memory-pressure soak (byte-capped server: used <= max, heap stable)'
"$tmpdir/cacheserver" -addr 127.0.0.1:21341 -admin-addr 127.0.0.1:21342 \
    -cache qdlp -max-bytes 8mib -shards 8 -log-level warn > "$tmpdir/bytecap.log" 2>&1 &
bytes_pid=$!
pids="$pids $bytes_pid"
i=0
until curl -fsS http://127.0.0.1:21342/healthz > /dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "byte-capped cacheserver did not become healthy" >&2
        cat "$tmpdir/bytecap.log" >&2
        exit 1
    fi
    sleep 0.1
done
heap_alloc() {
    curl -fsS http://127.0.0.1:21342/debug/vars \
        | tr ',' '\n' | sed -n 's/.*"HeapAlloc": *\([0-9][0-9]*\).*/\1/p' | head -1
}
# Footprint well past the 8 MiB budget: 16384 keys x 4 KiB values = 64 MiB.
"$tmpdir/cacheload" -addr 127.0.0.1:21341 -conns 2 -ops 20000 -keyspace 16384 \
    -valuesize 4kib > /dev/null
heap1=$(heap_alloc)
"$tmpdir/cacheload" -addr 127.0.0.1:21341 -conns 2 -ops 40000 -keyspace 16384 \
    -valuesize 4kib > /dev/null
heap2=$(heap_alloc)
curl -fsS http://127.0.0.1:21342/metrics > "$tmpdir/bytecap_metrics.txt"
used=$(awk '$1 ~ /^cache_used_bytes/ {sum += $2} END {printf "%.0f", sum}' "$tmpdir/bytecap_metrics.txt")
max=$(awk '$1 ~ /^cache_max_bytes/ {sum += $2} END {printf "%.0f", sum}' "$tmpdir/bytecap_metrics.txt")
[ -n "$used" ] && [ -n "$max" ] && [ "$max" -gt 0 ] \
    || { echo "byte gauges missing from /metrics" >&2; cat "$tmpdir/bytecap_metrics.txt" >&2; exit 1; }
[ "$used" -le "$max" ] \
    || { echo "cache_used_bytes $used exceeds cache_max_bytes $max" >&2; exit 1; }
grep -q '^cache_expired_proactive_total' "$tmpdir/bytecap_metrics.txt" \
    || { echo "cache_expired_proactive_total missing from /metrics" >&2; exit 1; }
# Heap must plateau once the cache is full: the second (longer) round may
# not balloon past a generous multiple of the first.
[ -n "$heap1" ] && [ -n "$heap2" ] \
    || { echo "HeapAlloc missing from /debug/vars" >&2; exit 1; }
[ "$heap2" -le $((heap1 * 4 + 33554432)) ] \
    || { echo "heap grew from $heap1 to $heap2 across soak rounds" >&2; exit 1; }
kill "$bytes_pid"
phase 'multi-listener smoke (2 listeners: healthz, stats listeners 2, writev + batch counters move)'
"$tmpdir/cacheserver" -addr 127.0.0.1:21351 -admin-addr 127.0.0.1:21352 \
    -max-entries 16384 -shards 8 -listeners 2 -log-level warn > "$tmpdir/percore.log" 2>&1 &
percore_pid=$!
pids="$pids $percore_pid"
i=0
until curl -fsS http://127.0.0.1:21352/healthz > /dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "2-listener cacheserver did not become healthy" >&2
        cat "$tmpdir/percore.log" >&2
        exit 1
    fi
    sleep 0.1
done
"$tmpdir/cacheload" -addr 127.0.0.1:21351 -conns 4 -ops 20000 -keyspace 8192 \
    -json "$tmpdir/percore_bench.json" > /dev/null
curl -fsS http://127.0.0.1:21352/metrics > "$tmpdir/percore_metrics.txt"
for counter in cache_server_flushes_total cache_server_batches_total; do
    grep -Eq "^$counter [1-9]" "$tmpdir/percore_metrics.txt" \
        || { echo "$counter did not move under 2-listener load" >&2; cat "$tmpdir/percore_metrics.txt" >&2; exit 1; }
done
# The server closes the connection after quit, which ends the read.
timeout 5 bash -c 'exec 3<>/dev/tcp/127.0.0.1/21351; printf "stats\r\nquit\r\n" >&3; cat <&3' \
    > "$tmpdir/percore_stats.txt" || true
grep -q '^STAT listeners 2' "$tmpdir/percore_stats.txt" \
    || { echo "stats does not report listeners 2" >&2; cat "$tmpdir/percore_stats.txt" >&2; exit 1; }
grep -q '"listeners": 2' "$tmpdir/percore_bench.json" \
    || { echo "bench artifact missing server listener count" >&2; cat "$tmpdir/percore_bench.json" >&2; exit 1; }
kill "$percore_pid"
phase 'mrc analytics smoke (cacheserver -mrc-sample: monotone /debug/mrc curve, mrc + window metrics)'
"$tmpdir/cacheserver" -addr 127.0.0.1:21361 -admin-addr 127.0.0.1:21362 \
    -max-entries 16384 -shards 8 -mrc-sample 0.25 -log-level warn > "$tmpdir/mrc.log" 2>&1 &
mrc_pid=$!
pids="$pids $mrc_pid"
i=0
until curl -fsS http://127.0.0.1:21362/healthz > /dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "mrc-sampling cacheserver did not become healthy" >&2
        cat "$tmpdir/mrc.log" >&2
        exit 1
    fi
    sleep 0.1
done
"$tmpdir/cacheload" -addr 127.0.0.1:21361 -conns 2 -ops 40000 -keyspace 8192 \
    -json "$tmpdir/mrc_bench.json" > /dev/null
sleep 1.2   # let the estimator's drain loop publish a snapshot
curl -fsS http://127.0.0.1:21362/debug/mrc > "$tmpdir/mrc.txt"
grep -q '^point ' "$tmpdir/mrc.txt" \
    || { echo "/debug/mrc has no curve points" >&2; cat "$tmpdir/mrc.txt" >&2; exit 1; }
awk '/^point / { split($4, h, "="); if (h[2] + 1e-9 < prev) { print "hit curve decreasing at " $0; exit 1 } prev = h[2] }' \
    "$tmpdir/mrc.txt" \
    || { echo "/debug/mrc hit curve not monotone non-decreasing" >&2; cat "$tmpdir/mrc.txt" >&2; exit 1; }
curl -fsS http://127.0.0.1:21362/debug/series > "$tmpdir/series.txt"
grep -q '^window d=1m ' "$tmpdir/series.txt" \
    || { echo "/debug/series missing 1m window" >&2; cat "$tmpdir/series.txt" >&2; exit 1; }
curl -fsS http://127.0.0.1:21362/metrics > "$tmpdir/mrc_metrics.txt"
grep -q '^cache_mrc_predicted_hit_ratio{scale="1x"}' "$tmpdir/mrc_metrics.txt" \
    || { echo "cache_mrc_predicted_hit_ratio missing from /metrics" >&2; exit 1; }
grep -q '^cache_window_hit_ratio{window="1m"}' "$tmpdir/mrc_metrics.txt" \
    || { echo "cache_window_hit_ratio missing from /metrics" >&2; exit 1; }
grep -q '"mrc_sample_rate"' "$tmpdir/mrc_bench.json" \
    || { echo "bench artifact missing mrc signals" >&2; cat "$tmpdir/mrc_bench.json" >&2; exit 1; }
kill "$mrc_pid"
phase 'overload smoke (-target-p99 server sheds a flood, stays healthy)'
"$tmpdir/cacheserver" -addr 127.0.0.1:21371 -admin-addr 127.0.0.1:21372 \
    -max-entries 16384 -shards 8 -target-p99 50ms -max-inflight 1 -max-pending 2 \
    -log-level warn > "$tmpdir/overload.log" 2>&1 &
ovl_pid=$!
pids="$pids $ovl_pid"
i=0
until curl -fsS http://127.0.0.1:21372/healthz > /dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "overload-limited cacheserver did not become healthy" >&2
        cat "$tmpdir/overload.log" >&2
        exit 1
    fi
    sleep 0.1
done
# Flood a one-slot, two-seat server with 16 closed-loop connections moving
# 512 KiB values — service time dominates, so arrivals pile up at admission.
# Excess load must be answered with fast busy replies (counted as errors by
# the resilient client, never retried), not queued without bound.
"$tmpdir/cacheload" -addr 127.0.0.1:21371 -conns 16 -ops 4000 -keyspace 64 \
    -valuesize 512kib -retries 1 > "$tmpdir/overloadload.txt"
curl -fsS http://127.0.0.1:21372/metrics > "$tmpdir/overload_metrics.txt"
shed=$(awk '$1 ~ /^cache_shed_total/ {sum += $2} END {printf "%.0f", sum}' "$tmpdir/overload_metrics.txt")
[ -n "$shed" ] && [ "$shed" -gt 0 ] \
    || { echo "cache_shed_total did not move under flood" >&2; cat "$tmpdir/overload_metrics.txt" >&2; exit 1; }
grep -q '^cache_limiter_limit ' "$tmpdir/overload_metrics.txt" \
    || { echo "cache_limiter_limit gauge missing from /metrics" >&2; exit 1; }
curl -fsS http://127.0.0.1:21372/healthz > /dev/null \
    || { echo "server unhealthy after overload flood" >&2; exit 1; }
kill "$ovl_pid"
phase 'benchdiff smoke (artifact diffed against itself is all-zero)'
scripts/benchdiff "$tmpdir/percore_bench.json" "$tmpdir/percore_bench.json" > "$tmpdir/benchdiff.txt"
grep -q '+0.0%' "$tmpdir/benchdiff.txt" \
    || { echo "benchdiff self-diff did not report zero delta" >&2; cat "$tmpdir/benchdiff.txt" >&2; exit 1; }
phase "total: $(($(date +%s) - t0)) s"
echo 'tier1: all green'
