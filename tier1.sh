#!/bin/sh
# Tier-1 gate: everything here must pass before a change lands. `go test
# ./...` carries the repository rules (internal/census), the served
# binaries' flag wiring (cmd/cacheserver) and every command and example;
# this script adds what a Go test cannot express.
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
phase 'go vet ./...'
go vet ./...
phase 'go vet on darwin/arm64 and linux/386 (the !linux fallbacks reuseport_other.go and sockio_other.go, and 32-bit Iovec lengths)'
for target in darwin/arm64 linux/386; do
    GOOS=${target%/*} GOARCH=${target#*/} go vet ./internal/server/... ./internal/cluster/... ./cmd/cacheserver/
done
phase 'go build ./...'
go build ./...
phase 'go test ./... (incl. the repository rules and exported-name census, the served binaries, every command and example, both golden tables in internal/policy/all, trace identity and the alloc guards)'
go test ./...
phase 'go test ./... (benchmark/: a nested module root go test skips, built against the packages above)'
(cd benchmark && go test ./...)
phase 'go test -race (concurrent incl. the KV model test and hammer + server + obs + chaos + cluster)'
go test -race ./internal/concurrent/... ./internal/server/... ./internal/obs/... ./internal/chaos/... ./internal/cluster/...
phase 'flake guard (graceful drain, 10 runs under -race: it once failed 1 run in 25-300)'
go test -race -count=10 -run 'TestServerGracefulShutdownDrains$' ./internal/server/
phase 'flake guard (chaos proxy byte preservation, 50 runs: it once failed about 1 run in 15, when every per-op fault draw came up clean)'
go test -count=50 -run 'TestProxyLatencyAndFragmentationPreserveBytes$' ./internal/chaos/
phase 'bench smoke (one iteration per benchmark, in the packages that have one)'
go test -bench=. -benchtime=1x -run='^$' \
    $(grep -rl --include='*_test.go' --exclude-dir=benchmark '^func Benchmark' . | xargs -n1 dirname | sort -u) > /dev/null
phase "total: $(($(date +%s) - t0)) s"
echo 'tier1: all green'
