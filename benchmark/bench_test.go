package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/workload"
)

// The generators are the benchmark's contract with every later run: the
// same seed must give byte-identical request streams, here and after any
// change to internal/workload. The hash is pinned; if it moves, every
// recorded result stops being comparable and the change must say so.
func TestStreamsPinnedBySeed(t *testing.T) {
	digest := func(seed int64) string {
		h := sha256.New()
		put := func(v uint64) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
		for _, r := range zipfStream(subSeed(seed, 0), hotKeys, 1<<14, 1.0) {
			put(uint64(r))
		}
		for _, w := range familyWindows(workload.MSRLike(), seed, churnObjects, 1<<13, 2) {
			for _, id := range w {
				put(id)
			}
		}
		for _, tr := range simTraces(seed) {
			for _, r := range tr.Requests[:1<<12] {
				put(r.Key)
			}
		}
		pay := newPayloads(seed)
		for id := uint64(0); id < 256; id++ {
			h.Write(pay.value(id, pay.logUniformSize(id)))
		}
		h.Write(rankKey(nil, 0xbeef))
		h.Write(idKey(nil, 0xfeedface))
		return hex.EncodeToString(h.Sum(nil))
	}
	const want = "1ff89f8f8d15de8e974dbba4c17320c6cebdfaa1e36c9d5fac71d920b225027f"
	got := digest(1)
	if got != want {
		t.Errorf("seed 1 streams hash to %s, pinned %s", got, want)
	}
	if again := digest(1); again != got {
		t.Errorf("same seed gave different streams: %s then %s", got, again)
	}
	if other := digest(2); other == got {
		t.Error("seeds 1 and 2 gave the same streams")
	}
}

func TestLogUniformSizeRange(t *testing.T) {
	pay := newPayloads(7)
	var sum float64
	const n = 100000
	for id := uint64(0); id < n; id++ {
		s := pay.logUniformSize(id)
		if s < minValue || s > maxValue {
			t.Fatalf("size %d outside [%d, %d]", s, minValue, maxValue)
		}
		if len(pay.value(id, s)) != s {
			t.Fatalf("value of %d has the wrong length", id)
		}
		sum += float64(s)
	}
	// The mean of a log-uniform on [a, b] is (b-a)/ln(b/a).
	want := float64(maxValue-minValue) / math.Log(maxValue/minValue)
	if mean := sum / n; math.Abs(mean-want)/want > 0.03 {
		t.Errorf("mean size %.0f, want about %.0f", mean, want)
	}
}

// chunked hands out its input a few bytes at a time, so that every reply
// element arrives split across reads.
func chunked(s string, n int) *bufio.Reader {
	return bufio.NewReaderSize(&chunkReader{[]byte(s), n}, 64)
}

type chunkReader struct {
	b []byte
	n int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.b) == 0 {
		return 0, io.EOF
	}
	n := min(c.n, len(c.b), len(p))
	copy(p, c.b[:n])
	c.b = c.b[n:]
	return n, nil
}

func TestPipelinedReplyReader(t *testing.T) {
	// A window of three gets (hit, miss, hit with a value holding CRLF and
	// the word END), then two sets.
	const replies = "VALUE key:00000001 0 5\r\nhello\r\nEND\r\n" +
		"END\r\n" +
		"VALUE key:00000003 7 13 99\r\nEND\r\nVALUE \r\n\r\nEND\r\n" +
		"STORED\r\nSTORED\r\n"
	readers := map[string]*bufio.Reader{
		"whole":    bufio.NewReader(strings.NewReader(replies)),
		"one-byte": bufio.NewReaderSize(iotest.OneByteReader(strings.NewReader(replies)), 64),
		"3-bytes":  chunked(replies, 3),
		"7-bytes":  chunked(replies, 7),
	}
	for name, br := range readers {
		var buf []byte
		v, hit, err := readGetReply(br, []byte("key:00000001"), buf)
		if err != nil || !hit || string(v) != "hello" {
			t.Fatalf("%s: first get: %q %v %v", name, v, hit, err)
		}
		v, hit, err = readGetReply(br, []byte("key:00000002"), v)
		if err != nil || hit || len(v) != 0 {
			t.Fatalf("%s: second get should miss: %q %v %v", name, v, hit, err)
		}
		v, hit, err = readGetReply(br, []byte("key:00000003"), v)
		if err != nil || !hit || string(v) != "END\r\nVALUE \r\n" {
			t.Fatalf("%s: third get: %q %v %v", name, v, hit, err)
		}
		for i := 0; i < 2; i++ {
			if err := readStored(br); err != nil {
				t.Fatalf("%s: set %d: %v", name, i, err)
			}
		}
		if _, _, err := readGetReply(br, []byte("k"), v); !errors.Is(err, io.EOF) {
			t.Fatalf("%s: read past the end: %v", name, err)
		}
	}
}

func TestReplyReaderRejects(t *testing.T) {
	cases := []struct {
		name, in string
		refused  bool
	}{
		{"busy", "SERVER_ERROR busy\r\n", true},
		{"client error", "CLIENT_ERROR bad key\r\n", true},
		{"wrong key", "VALUE other 0 1\r\nx\r\nEND\r\n", false},
		{"short block", "VALUE k 0 3\r\nab\r\nEND\r\n", false},
		{"no end", "VALUE k 0 1\r\nx\r\nVALUE k 0 1\r\n", false},
		{"bare LF", "END\n", false},
		{"garbage", "HELLO\r\n", false},
	}
	for _, c := range cases {
		_, _, err := readGetReply(bufio.NewReader(strings.NewReader(c.in)), []byte("k"), nil)
		if err == nil || isRefused(err) != c.refused {
			t.Errorf("%s: err %v, refused %v, want refused %v", c.name, err, isRefused(err), c.refused)
		}
	}
	if err := readStored(bufio.NewReader(strings.NewReader("SERVER_ERROR out of memory\r\n"))); !isRefused(err) {
		t.Errorf("refused set: %v", err)
	}
	if err := readStored(bufio.NewReader(strings.NewReader("END\r\n"))); err == nil || isRefused(err) {
		t.Errorf("END in place of STORED: %v", err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) for these inputs.
	cases := []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{2, 4, 4, 5, 9, 11, 12}, 4, 5, 11},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.v)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSliceStatistics(t *testing.T) {
	// Two clients, ten samples each per slice: the value is the slice
	// number, except that slice 4 holds one huge stall. The low decile of
	// the slice medians (slice 4 of 0..39) is untouched by it, and that of
	// the slice p99s moves to the next slice up, not by the size of the
	// stall.
	mk := func() []float32 {
		c := make([]float32, 10*phaseSlices)
		for i := range c {
			c[i] = float32(i / 10)
		}
		return c
	}
	a, b := mk(), mk()
	a[45] = 1e6
	if got := slicePercentile([][]float32{a, b}, phaseSlices, 0.5); got != 4 {
		t.Errorf("p50 = %v, want 4", got)
	}
	if got := slicePercentile([][]float32{a, b}, phaseSlices, 0.99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
	// Fewer samples than slices: the empty slices are skipped.
	if got := slicePercentile([][]float32{{7}}, phaseSlices, 0.99); got != 7 {
		t.Errorf("one sample: %v", got)
	}
	if got := totalSamples([][]float32{a, b}); got != 20*phaseSlices {
		t.Errorf("samples = %d", got)
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{0: 1, 0.5: 5, 0.9: 9, 0.99: 10, 1: 10} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if got := lowDecile([]float64{9, 3, 7, 1, 5}); got != 1 {
		t.Errorf("lowDecile of five = %v, want 1", got)
	}
	if got := lowDecile([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}); got != 1 {
		t.Errorf("lowDecile of eleven = %v, want 1", got)
	}
	// Three slices of 100 ops: 1 s, 3 s and 2 s of wall time, half of it
	// on the CPU; a slice without ops is left out.
	t0 := time.Unix(0, 0)
	at := func(s int, ops int64) mark {
		return mark{t: t0.Add(time.Duration(s) * time.Second), cpu: time.Duration(s) * time.Second / 2, ops: ops}
	}
	wall, cpu := sliceCosts([]mark{at(0, 0), at(1, 100), at(4, 200), at(4, 200), at(6, 300)})
	if len(wall) != 3 || wall[0] != 1e4 || wall[1] != 3e4 || wall[2] != 2e4 || cpu[1] != 1.5e4 {
		t.Errorf("sliceCosts: wall %v cpu %v", wall, cpu)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "get_p50_us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := func(m float64) []float64 { return []float64{m * 0.995, m, m, m * 1.005, m} }
	noisy := func(m float64) []float64 { return []float64{m * 0.8, m * 0.9, m, m * 1.1, m * 1.2} }
	cases := []struct {
		spec metricSpec
		a, b []float64
		want string
	}{
		{lower, steady(100), steady(101), "within bound"},
		{lower, steady(100), steady(115), "REGRESSED"},
		{lower, steady(100), steady(80), "better"},
		{higher, steady(100), steady(80), "REGRESSED"},
		{higher, steady(100), steady(120), "better"},
		// The medians are equal, but runs that disagree with themselves by
		// more than the bound cannot show it.
		{lower, noisy(100), noisy(100), "unresolved"},
		{lower, steady(100), noisy(130), "unresolved"},
	}
	for _, c := range cases {
		if got, _, _ := verdict(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.spec.Name, median(c.a), median(c.b), got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	b := tr.buf()
	root := b.begin("op", -1, 1)
	c1 := b.begin("get", root, 1)
	b.end(c1)
	c2 := b.begin("set", root, 1)
	b.end(c2)
	b.end(root)
	spans := tr.all()
	// Make the arithmetic exact.
	spans[0].Start, spans[0].End = 0, 100
	spans[1].Start, spans[1].End = 10, 40
	spans[2].Start, spans[2].End = 50, 90
	by := map[string]selfTime{}
	for _, st := range selfTimes(spans) {
		by[st.name] = st
	}
	if by["op"].self != 30 || by["op"].total != 100 || by["get"].self != 30 || by["set"].self != 40 {
		t.Errorf("self times: %+v", by)
	}
	if (*tracer)(nil).buf() != nil {
		t.Error("a nil tracer must hand out nil buffers")
	}
}

func TestMemConn(t *testing.T) {
	ln := newMemListener()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	client, err := ln.dial()
	if err != nil {
		t.Fatal(err)
	}
	server := <-accepted
	// Writes never block, whatever the reader is doing.
	big := bytes.Repeat([]byte("x"), 1<<20)
	if n, err := client.Write(big); n != len(big) || err != nil {
		t.Fatalf("write: %d %v", n, err)
	}
	got, err := io.ReadAll(io.LimitReader(server, int64(len(big))))
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("read back %d bytes, err %v", len(got), err)
	}
	// A read deadline wakes a blocked reader with a timeout error.
	server.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	_, err = server.Read(make([]byte, 1))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("deadline: %v", err)
	}
	// Clearing it and closing the peer gives EOF.
	server.SetReadDeadline(time.Time{})
	client.Close()
	if _, err := server.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("after close: %v", err)
	}
	ln.Close()
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("accept after close: %v", err)
	}
}

// resultLines returns the result lines a run printed, one per workload run.
func resultLines(t *testing.T, out string) []result {
	t.Helper()
	var rs []result
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad result line %q: %v", line, err)
		}
		rs = append(rs, r)
	}
	return rs
}

func specNames(t *testing.T, specs []metricSpec) map[string]string {
	t.Helper()
	m := map[string]string{}
	for _, s := range specs {
		if _, dup := m[s.Name]; dup {
			t.Errorf("BENCHMARK.json names %q twice", s.Name)
		}
		m[s.Name] = s.Unit
	}
	return m
}

func checkMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s of BENCHMARK.json not reported", what, name)
		} else if m.Unit != unit {
			t.Errorf("%s: %s reported in %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s is %v", what, name, m.Value)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: reported metric %s is not in BENCHMARK.json", what, name)
		}
	}
}

// The smoke test runs all six workloads at 1/100 scale through the same
// entry point as the command, servers and all, and holds the output to
// BENCHMARK.json.
func TestSmokeAllWorkloads(t *testing.T) {
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(e.root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", spec.RunSeconds, defaultSeconds)
	}
	var stdout, stderr bytes.Buffer
	outFile := t.TempDir() + "/runs.json"
	if code := run([]string{"-seconds", "0.1", "-seed", "3", "-out", outFile}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	rs := resultLines(t, stdout.String())
	if len(rs) != len(workloads) {
		t.Fatalf("%d result lines for %d workloads\n%s", len(rs), len(workloads), stdout.String())
	}
	want := specNames(t, spec.EndToEnd)
	for i, r := range rs {
		name := workloads[i].name
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct %v attempted %d failed %d", name, r.Correct, r.Attempted, r.Failed)
		}
		checkMetrics(t, name, r.Metrics, want)
		for n, m := range r.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v; end-to-end metrics are never 0", name, n, m.Value)
			}
		}
	}
	// A file compared with itself is within every bound.
	stdout.Reset()
	if code := run([]string{"-compare", outFile, outFile}, &stdout, &stderr); code != 0 {
		t.Errorf("self-compare exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if strings.Contains(stdout.String(), "REGRESSED") || !strings.Contains(stdout.String(), "routed-get") {
		t.Errorf("self-compare output:\n%s", stdout.String())
	}
}

func TestSmokeTracedRun(t *testing.T) {
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(e.root)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "lib-churn", "-seconds", "0.5", "-trace", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	rs := resultLines(t, stdout.String())
	if len(rs) != 1 || !rs[0].Correct {
		t.Fatalf("traced run:\n%s", stdout.String())
	}
	checkMetrics(t, "lib-churn traced", rs[0].Metrics, specNames(t, spec.PerLayer))
	positive := []string{"concurrent.kv.evictions_per_set", "ttlwheel.advance_ns_per_expired"}
	if !raceEnabled {
		// Self times are differences of measured layers; the race detector
		// slows the in-memory connection more than it slows the kernel's.
		positive = append(positive, "server.conn_self_ns", "server.net_self_ns")
	}
	for _, n := range positive {
		if rs[0].Metrics[n].Value <= 0 {
			t.Errorf("%s = %v, want positive", n, rs[0].Metrics[n].Value)
		}
	}
	spans, err := os.ReadFile(e.work + "/spans-lib-churn.jsonl")
	if err != nil || !bytes.Contains(spans, []byte(`"concurrent.kv.set"`)) {
		t.Errorf("span file: %v, %d bytes", err, len(spans))
	}
}

// A corrupted expectation must fail the run: the output check has teeth.
func TestCorruptedExpectationFailsRun(t *testing.T) {
	for _, w := range []string{"lib-hot", "sim-sweep"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-workload", w, "-seconds", "0.02", "-corrupt"}, &stdout, &stderr)
		rs := resultLines(t, stdout.String())
		if code != 1 || len(rs) != 1 || rs[0].Correct {
			t.Errorf("%s -corrupt: exit %d, results %+v\n%s", w, code, rs, stdout.String())
		}
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-seconds", "0"},
		{"-trace", "2"},
		{"-compare", "only-one.json"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
