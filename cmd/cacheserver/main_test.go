package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

// TestBinaries builds cacheserver and cacheload once and runs each row
// against the built binaries: what a row asserts is what only the binaries
// show, that a flag reaches the plane it configures. In-process tests in
// internal/ check what those planes do. Every listener binds
// 127.0.0.1:0; a server's ports are read from its start-up log lines.
func TestBinaries(t *testing.T) {
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, ".", "../cacheload").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// go test caches a passing result keyed on the test's own dependencies
	// and the files it opens: listing the directory of every package the
	// binaries are built from keys it on cacheload's sources too.
	dirs, err := exec.Command("go", "list", "-deps", "-f", "{{if not .Standard}}{{.Dir}}{{end}}", ".", "../cacheload").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	for _, dir := range strings.Split(strings.TrimSpace(string(dirs)), "\n") {
		if _, err := os.ReadDir(dir); err != nil {
			t.Fatal(err)
		}
	}
	b := binaries{dir: bin}

	for _, row := range []struct {
		name string
		run  func(t *testing.T, b binaries)
	}{
		{"events", rowEvents},
		{"chaos", rowChaos},
		{"cluster", rowCluster},
		{"bytecap", rowByteCap},
		{"listeners", rowListeners},
		{"mrc", rowMRC},
		{"overload", rowOverload},
	} {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel() // rows share nothing: each starts its own processes
			row.run(t, b)
		})
	}
}

// -events and -trace-sample reach the policy's recorder and the
// connections' tracer: lifecycle events and spans both fill.
func rowEvents(t *testing.T, b binaries) {
	srv := b.server(t, "-max-entries", "16384", "-shards", "8", "-events", "16384", "-trace-sample", "8")
	b.load(t, "-addr", srv.data, "-conns", "2", "-ops", "20000", "-keyspace", "8192")
	if body := srv.get(t, "/debug/events"); !strings.Contains(body, "kind=") {
		t.Errorf("/debug/events carried no lifecycle events:\n%s", body)
	}
	var dump struct {
		SpansTotal uint64 `json:"spans_total"`
	}
	if err := json.Unmarshal([]byte(srv.get(t, "/debug/events?format=json")), &dump); err != nil || dump.SpansTotal == 0 {
		t.Errorf("/debug/events json: spans_total %d, err %v", dump.SpansTotal, err)
	}
}

// cacheload -chaos interposes its fault proxy and reports what it
// injected; the server survives the soak healthy, with no handler panic.
func rowChaos(t *testing.T, b binaries) {
	srv := b.server(t, "-max-entries", "16384", "-shards", "8")
	out := b.load(t, "-addr", srv.data, "-conns", "2", "-ops", "20000", "-keyspace", "8192",
		"-chaos", "seed=7,refuse=0.02,latency=500us,latency-p=0.05,partial=0.05,reset=0.002")
	if !strings.Contains(out, "chaos faults injected") {
		t.Errorf("chaos run reported no fault counters:\n%s", out)
	}
	srv.healthy(t)
	if n, ok := metric(srv.get(t, "/metrics"), "cache_server_panics_total"); !ok || n != 0 {
		t.Errorf("cache_server_panics_total = %v (present %v) after chaos soak", n, ok)
	}
}

// -route, -replicas and -hot-threshold make a router over three backends;
// cacheload -servers spreads load over the same backends by the ring; and
// the backends' -mrc-sample curves roll up on the router's /cluster page.
func rowCluster(t *testing.T, b binaries) {
	var nodes []*proc
	var addrs []string
	for i := 0; i < 3; i++ {
		n := b.server(t, "-max-entries", "16384", "-shards", "8", "-mrc-sample", "0.25")
		nodes = append(nodes, n)
		addrs = append(addrs, n.data)
	}
	ring := strings.Join(addrs, ",")
	router := b.server(t, "-route", ring, "-replicas", "2", "-hot-threshold", "4")
	b.load(t, "-addr", router.data, "-conns", "2", "-ops", "20000", "-keyspace", "4096")
	page := router.get(t, "/cluster")
	if !regexp.MustCompile(`routed_get=[1-9]`).MatchString(page) {
		t.Errorf("/cluster shows no routed gets after load:\n%s", page)
	}
	if !strings.Contains(page, "cluster nodes=3") {
		t.Errorf("/cluster does not report 3 nodes:\n%s", page)
	}
	b.load(t, "-servers", ring, "-conns", "2", "-ops", "10000", "-keyspace", "4096")
	for _, p := range append(nodes, router) {
		p.healthy(t)
	}
	// Each backend publishes its curve once a second; the router caches
	// its fleet poll for two.
	eventually(t, 10*time.Second, func() (bool, string) {
		page := router.get(t, "/cluster")
		return strings.Contains(page, "mrc fleet nodes=3 "), page
	})
}

// -cache qdlp -max-bytes bounds the bytes cached under a footprint 8x the
// budget, and the heap plateaus once the cache is full.
func rowByteCap(t *testing.T, b binaries) {
	srv := b.server(t, "-cache", "qdlp", "-max-bytes", "8mib", "-shards", "8")
	heapAlloc := func() uint64 {
		var vars struct {
			Memstats struct{ HeapAlloc uint64 } `json:"memstats"`
		}
		if err := json.Unmarshal([]byte(srv.get(t, "/debug/vars")), &vars); err != nil || vars.Memstats.HeapAlloc == 0 {
			t.Fatalf("HeapAlloc missing from /debug/vars: %v", err)
		}
		return vars.Memstats.HeapAlloc
	}
	// 16384 keys x 4 KiB values = 64 MiB.
	b.load(t, "-addr", srv.data, "-conns", "2", "-ops", "20000", "-keyspace", "16384", "-valuesize", "4kib")
	heap1 := heapAlloc()
	b.load(t, "-addr", srv.data, "-conns", "2", "-ops", "40000", "-keyspace", "16384", "-valuesize", "4kib")
	heap2 := heapAlloc()
	m := srv.get(t, "/metrics")
	used, okUsed := metric(m, "cache_used_bytes")
	maxBytes, okMax := metric(m, "cache_max_bytes")
	if !okUsed || !okMax || maxBytes <= 0 {
		t.Fatalf("byte gauges missing from /metrics:\n%s", m)
	}
	if used > maxBytes {
		t.Errorf("cache_used_bytes %v exceeds cache_max_bytes %v", used, maxBytes)
	}
	if _, ok := metric(m, "cache_expired_proactive_total"); !ok {
		t.Errorf("cache_expired_proactive_total missing from /metrics")
	}
	// The second, longer round may not balloon past a generous multiple
	// of the first.
	if heap2 > heap1*4+32<<20 {
		t.Errorf("heap grew from %d to %d across soak rounds", heap1, heap2)
	}
}

// -listeners 2 binds two listeners, and the batched write path serves
// through them.
func rowListeners(t *testing.T, b binaries) {
	srv := b.server(t, "-max-entries", "16384", "-shards", "8", "-listeners", "2")
	b.load(t, "-addr", srv.data, "-conns", "4", "-ops", "20000", "-keyspace", "8192")
	m := srv.get(t, "/metrics")
	for _, c := range []string{"cache_server_flushes_total", "cache_server_batches_total"} {
		if n, _ := metric(m, c); n <= 0 {
			t.Errorf("%s did not move under 2-listener load", c)
		}
	}
	if st := srv.stats(t, ""); st["listeners"] != "2" {
		t.Errorf("stats reports listeners %q, want 2", st["listeners"])
	}
}

// -mrc-sample feeds the online estimator from the read path: its curve
// reaches /debug/mrc, /metrics and `stats mrc`.
func rowMRC(t *testing.T, b binaries) {
	srv := b.server(t, "-max-entries", "16384", "-shards", "8", "-mrc-sample", "0.25")
	b.load(t, "-addr", srv.data, "-conns", "2", "-ops", "40000", "-keyspace", "8192")
	// The estimator publishes its curve once a second.
	eventually(t, 10*time.Second, func() (bool, string) {
		body := srv.get(t, "/debug/mrc")
		return regexp.MustCompile(`(?m)^point `).MatchString(body), body
	})
	if _, ok := metric(srv.get(t, "/metrics"), `cache_mrc_predicted_hit_ratio{scale="1x"}`); !ok {
		t.Errorf(`cache_mrc_predicted_hit_ratio{scale="1x"} missing from /metrics`)
	}
	if st := srv.stats(t, "mrc"); st["enabled"] != "1" {
		t.Errorf("stats mrc does not report enabled 1: %v", st)
	}
}

// -target-p99, -max-inflight and -max-pending arm the limiter: a flood of
// one-slot, two-seat admission is shed with fast busy replies, and the
// server stays healthy.
func rowOverload(t *testing.T, b binaries) {
	srv := b.server(t, "-max-entries", "16384", "-shards", "8",
		"-target-p99", "50ms", "-max-inflight", "1", "-max-pending", "2")
	// 16 closed-loop connections moving 512 KiB values: service time
	// dominates, so arrivals pile up at admission.
	b.load(t, "-addr", srv.data, "-conns", "16", "-ops", "4000", "-keyspace", "64",
		"-valuesize", "512kib", "-retries", "1")
	m := srv.get(t, "/metrics")
	if n, _ := metric(m, "cache_shed_total"); n <= 0 {
		t.Errorf("cache_shed_total did not move under flood:\n%s", m)
	}
	if _, ok := metric(m, "cache_limiter_limit"); !ok {
		t.Errorf("cache_limiter_limit gauge missing from /metrics")
	}
	srv.healthy(t)
}

// binaries runs the built cacheserver and cacheload.
type binaries struct{ dir string }

// proc is one running cacheserver.
type proc struct {
	data, admin string // bound addresses
}

var (
	servingLine = regexp.MustCompile(`msg=serving .*\baddr=(\S+)`)
	adminLine   = regexp.MustCompile(`msg="admin endpoint up" .*\burl=http://(\S+)/metrics`)
)

// server starts cacheserver with args on loopback ports the kernel picks
// and returns once both its listeners are bound and /healthz answers. The
// process is killed when t ends.
func (b binaries) server(t *testing.T, args ...string) *proc {
	t.Helper()
	cmd := exec.Command(filepath.Join(b.dir, "cacheserver"),
		append([]string{"-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var (
		mu   sync.Mutex
		log  bytes.Buffer
		done = make(chan struct{})
	)
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-done
		cmd.Wait()
		if t.Failed() {
			t.Logf("cacheserver %s log:\n%s", strings.Join(args, " "), log.String())
		}
	})
	ready := make(chan *proc, 1)
	go func() {
		defer close(done)
		p, sent := &proc{}, false
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			mu.Lock()
			log.WriteString(line + "\n")
			mu.Unlock()
			if m := servingLine.FindStringSubmatch(line); m != nil {
				p.data = m[1]
			}
			if m := adminLine.FindStringSubmatch(line); m != nil {
				p.admin = m[1]
			}
			if p.data != "" && p.admin != "" && !sent {
				ready <- p
				sent = true
			}
		}
		io.Copy(io.Discard, stderr) // a line too long to scan
	}()
	select {
	case p := <-ready:
		p.healthy(t)
		return p
	case <-time.After(10 * time.Second):
		t.Fatalf("cacheserver %s logged no bound addresses", strings.Join(args, " "))
		return nil
	}
}

// load runs cacheload with args to completion and returns its stdout.
func (b binaries) load(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(filepath.Join(b.dir, "cacheload"), append(args, "-log-level", "warn")...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("cacheload %s: %v\n%s%s", strings.Join(args, " "), err, stdout.String(), stderr.String())
	}
	return stdout.String()
}

// get fetches an admin path and fails t unless it answers 200.
func (p *proc) get(t *testing.T, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + p.admin + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", path, resp.Status, body)
	}
	return string(body)
}

// healthy fails t unless /healthz answers 200.
func (p *proc) healthy(t *testing.T) {
	t.Helper()
	p.get(t, "/healthz")
}

// stats reads `stats` (or `stats arg`) over the data port.
func (p *proc) stats(t *testing.T, arg string) map[string]string {
	t.Helper()
	c, err := server.Dial(p.data)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.StatsArg(arg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// metric sums the samples of series in a Prometheus exposition: the
// family's own line, or each labelled line when series names a family
// without labels. ok reports whether any sample was found.
func metric(exposition, series string) (sum float64, ok bool) {
	for _, line := range strings.Split(exposition, "\n") {
		name, value, found := strings.Cut(line, " ")
		if !found || strings.HasPrefix(line, "#") {
			continue
		}
		if name != series && !strings.HasPrefix(name, series+"{") {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err == nil {
			sum, ok = sum+v, true
		}
	}
	return sum, ok
}

// eventually polls cond until it holds or the deadline passes, then fails
// t with cond's last observation.
func eventually(t *testing.T, d time.Duration, cond func() (bool, string)) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		ok, seen := cond()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("condition not met within %v; last seen:\n%s", d, seen)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
