package server

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/concurrent"
	"repro/internal/metrics"
	"repro/internal/mrc"
	"repro/internal/telemetry"
)

// The text forms of /debug/mrc and /debug/series are scraped by scripts
// (TestBinaries reads `point` lines) and eyeballed in incidents, so their
// line layout is pinned exactly here.
func TestWriteMRCTextStable(t *testing.T) {
	d := mrcDump{
		Rate:              0.25,
		TrackedKeys:       100,
		SampledAccesses:   500,
		EstimatedAccesses: 2000,
		ColdMisses:        80,
		Dropped:           2,
		MaxSize:           4000,
		AgeSeconds:        1.5,
		Signals: mrc.Signals{
			CapacityItems: 1000,
			BytesPerItem:  128,
			Scales: []mrc.ScaleSignal{
				{Scale: 0.5, Size: 500, HitRatio: 0.5},
				{Scale: 1, Size: 1000, HitRatio: 0.75},
			},
			MarginalHitPerMiB: 0.0001,
		},
		Curve: []curvePoint{
			{Size: 100, Miss: 0.5, Hit: 0.5},
			{Size: 1000, Miss: 0.25, Hit: 0.75},
		},
	}
	var sb strings.Builder
	writeMRCText(&sb, d)
	want := "" +
		"# mrc rate=0.2500 tracked_keys=100 sampled=500 est_accesses=2000 cold=80 dropped=2 max_size=4000 age=1.5s\n" +
		"# signals capacity_items=1000 bytes_per_item=128.0 marginal_hit_per_mib=0.000100\n" +
		"signal scale=0.5x size=500 predicted_hit=0.5000\n" +
		"signal scale=1x size=1000 predicted_hit=0.7500\n" +
		"point size=100 miss=0.5000 hit=0.5000\n" +
		"point size=1000 miss=0.2500 hit=0.7500\n"
	if sb.String() != want {
		t.Errorf("mrc text drifted:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestWriteSeriesTextStable(t *testing.T) {
	d := seriesDump{
		Windows: []telemetry.Agg{{
			Label: "1m", Seconds: 3, Ops: 200, Hits: 160, Misses: 40,
			Sets: 20, Deletes: 5, Evictions: 4, Expired: 1,
			HitRatio: 0.8, OpsPerSec: 75, UsedBytes: 8000, Items: 19,
			P50: 0.0005, P99: 0.009,
		}},
		Points: []telemetry.Point{
			{Sec: 1700000000, Ops: 100, HitRatio: 0.9, Sets: 10, Evictions: 2, UsedBytes: 4096, Items: 10},
		},
	}
	var sb strings.Builder
	writeSeriesText(&sb, d)
	want := "" +
		"# series windows=1 points=1\n" +
		"window d=1m seconds=3 ops=200 hit_ratio=0.8000 ops_per_sec=75.0 sets=20 deletes=5 evictions=4 expired=1 used_bytes=8000 items=19 p50=0.000500 p99=0.009000\n" +
		"sec=1700000000 ops=100 hit_ratio=0.9000 sets=10 evictions=2 used_bytes=4096 items=10\n"
	if sb.String() != want {
		t.Errorf("series text drifted:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// mrcTestEstimator builds an estimator with a published curve: at rate 1
// every key is sampled, and a few rounds over a small keyspace make the
// curve show real hits. Its miniatures are LRU, whose hit curve is monotone.
func mrcTestEstimator(t *testing.T, rate float64) *mrc.Online {
	t.Helper()
	o, err := mrc.NewOnline(mrc.OnlineConfig{Rate: rate, Cache: func(c int) (concurrent.Cache, error) {
		return concurrent.New("lru", c, concurrent.WithShards(1))
	}})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		for k := uint64(1); k <= 200; k++ {
			o.Observe(k)
		}
	}
	return o
}

// TestDebugMRCEndpoint drives /debug/mrc end to end on a live server with
// the estimator configured: the text form must carry a monotone
// non-decreasing hit curve (LRU miniatures' invariant), the JSON form
// must round-trip the same snapshot, and a bogus format is a 400.
func TestDebugMRCEndpoint(t *testing.T) {
	online := mrcTestEstimator(t, 1)
	srv, _ := startServer(t, func(cfg *Config) { cfg.MRC = online })
	admin := httptest.NewServer(srv.AdminMux(nil))
	defer admin.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := admin.Client().Get(admin.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/debug/mrc")
	if code != http.StatusOK {
		t.Fatalf("/debug/mrc status = %d", code)
	}
	if !strings.HasPrefix(body, "# mrc rate=1.0000 ") {
		t.Fatalf("/debug/mrc header:\n%s", body)
	}
	prev := -1.0
	points := 0
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "point ") {
			continue
		}
		points++
		f := strings.Fields(line) // point size=N miss=M hit=H
		hit, err := strconv.ParseFloat(strings.TrimPrefix(f[3], "hit="), 64)
		if err != nil {
			t.Fatalf("bad point line %q: %v", line, err)
		}
		if hit < prev-1e-9 {
			t.Fatalf("hit curve not monotone at %q (prev %v)", line, prev)
		}
		prev = hit
	}
	if points == 0 {
		t.Fatalf("/debug/mrc has no curve points:\n%s", body)
	}
	if !strings.Contains(body, "signal scale=1x ") {
		t.Fatalf("/debug/mrc missing 1x signal:\n%s", body)
	}

	code, body = get("/debug/mrc?format=json")
	if code != http.StatusOK {
		t.Fatalf("json status = %d", code)
	}
	var d mrcDump
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatalf("json decode: %v\n%s", err, body)
	}
	if d.Rate != 1 || d.TrackedKeys != 200 || len(d.Curve) != points {
		t.Fatalf("json dump = rate %v tracked %d curve %d (text had %d points)",
			d.Rate, d.TrackedKeys, len(d.Curve), points)
	}

	if code, _ = get("/debug/mrc?format=yaml"); code != http.StatusBadRequest {
		t.Fatalf("bad format status = %d, want 400", code)
	}
}

// A /metrics scrape of a server with the estimator configured carries
// every cache_mrc_* family: the predicted hit ratio at each of the four
// scales, and the sampling rate the estimator runs at.
func TestAdminMetricsMRCFamilies(t *testing.T) {
	reg := metrics.NewRegistry()
	online := mrcTestEstimator(t, 0.25)
	srv, _ := startServer(t, func(cfg *Config) { cfg.Metrics, cfg.MRC = reg, online })
	admin := httptest.NewServer(srv.AdminMux(reg))
	defer admin.Close()
	resp, err := admin.Client().Get(admin.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]string{} // series (name and labels) → value
	families := map[string]bool{}
	for _, line := range strings.Split(string(body), "\n") {
		series, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		samples[series] = value
		name, _, _ := strings.Cut(series, "{")
		families[name] = true
	}
	for _, family := range []string{
		"cache_mrc_predicted_hit_ratio", "cache_mrc_marginal_hit_ratio_per_mib",
		"cache_mrc_sample_rate", "cache_mrc_tracked_keys",
		"cache_mrc_sampled_accesses_total", "cache_mrc_samples_dropped_total",
	} {
		if !families[family] {
			t.Errorf("/metrics has no %s family", family)
		}
	}
	for _, label := range mrc.ScaleLabels() {
		if _, ok := samples[`cache_mrc_predicted_hit_ratio{scale="`+label+`"}`]; !ok {
			t.Errorf("/metrics has no cache_mrc_predicted_hit_ratio at scale %s", label)
		}
	}
	if got := samples["cache_mrc_sample_rate"]; got != "0.25" {
		t.Errorf("cache_mrc_sample_rate = %q, want 0.25", got)
	}
}

// Without -mrc-sample the endpoint stays mounted and answers 200 with an
// explicit disabled marker in both forms, so dashboards need no config
// awareness.
func TestDebugMRCDisabled(t *testing.T) {
	srv, _ := startServer(t, nil)
	admin := httptest.NewServer(srv.AdminMux(nil))
	defer admin.Close()

	resp, err := admin.Client().Get(admin.URL + "/debug/mrc")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "# mrc disabled") {
		t.Fatalf("disabled text: %d %q", resp.StatusCode, body)
	}

	resp, err = admin.Client().Get(admin.URL + "/debug/mrc?format=json")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var m map[string]bool
	if err := json.Unmarshal(body, &m); err != nil || m["enabled"] {
		t.Fatalf("disabled json: %q (err %v)", body, err)
	}
}

// TestStatsMRCOverProtocol exercises the `stats mrc` wire subcommand the
// cluster router and cacheload harvest: full field set with an estimator,
// `STAT enabled 0` without one.
func TestStatsMRCOverProtocol(t *testing.T) {
	online := mrcTestEstimator(t, 1)
	_, addr := startServer(t, func(cfg *Config) { cfg.MRC = online })
	rc := dialRaw(t, addr)
	rc.send("stats mrc\r\n")
	st := map[string]string{}
	for {
		line := rc.line()
		if line == "END" {
			break
		}
		f := strings.Fields(line)
		if len(f) != 3 || f[0] != "STAT" {
			t.Fatalf("unexpected stats line %q", line)
		}
		st[f[1]] = f[2]
	}
	if st["enabled"] != "1" || st["rate"] != "1.000000" || st["tracked_keys"] != "200" {
		t.Fatalf("stats mrc = %v", st)
	}
	for _, key := range []string{
		"sampled_accesses", "estimated_accesses", "cold_misses", "dropped",
		"capacity_items", "bytes_per_item", "marginal_hit_per_mib", "curve_points",
		"predicted_hit_0.5x", "predicted_hit_1x", "predicted_hit_2x", "predicted_hit_4x",
	} {
		if _, ok := st[key]; !ok {
			t.Errorf("stats mrc missing %s", key)
		}
	}
	n, err := strconv.Atoi(st["curve_points"])
	if err != nil || n <= 0 {
		t.Fatalf("curve_points = %q", st["curve_points"])
	}
	curves := 0
	for k := range st {
		if strings.HasPrefix(k, "curve_") && k != "curve_points" {
			curves++
		}
	}
	if curves != n {
		t.Fatalf("curve_points says %d, %d curve_<size> stats present", n, curves)
	}

	_, plainAddr := startServer(t, nil)
	rc2 := dialRaw(t, plainAddr)
	rc2.send("stats mrc\r\n")
	if got := rc2.line(); got != "STAT enabled 0" {
		t.Fatalf("disabled stats mrc = %q", got)
	}
	if got := rc2.line(); got != "END" {
		t.Fatalf("missing END, got %q", got)
	}
}

// TestDebugSeriesEndpoint scrapes /debug/series on a live server after
// real traffic: all three fixed windows must appear, the JSON form must
// decode, and bad query parameters are 400s.
func TestDebugSeriesEndpoint(t *testing.T) {
	srv, addr := startServer(t, nil)
	admin := httptest.NewServer(srv.AdminMux(nil))
	defer admin.Close()

	rc := dialRaw(t, addr)
	rc.send("set foo 0 0 3\r\nbar\r\n")
	rc.expect("STORED")
	rc.send("get foo\r\n")
	rc.expect("VALUE foo 0 3")
	rc.expect("bar")
	rc.expect("END")

	resp, err := admin.Client().Get(admin.URL + "/debug/series?n=5")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/series status = %d", resp.StatusCode)
	}
	for _, label := range []string{"window d=1m ", "window d=5m ", "window d=1h "} {
		if !strings.Contains(string(body), label) {
			t.Fatalf("/debug/series missing %q:\n%s", label, body)
		}
	}
	// The scrape itself samples (RecordNow), so the gauges in the newest
	// bucket must reflect the one stored item.
	if !strings.Contains(string(body), "items=1") {
		t.Fatalf("/debug/series does not reflect current occupancy:\n%s", body)
	}

	resp, err = admin.Client().Get(admin.URL + "/debug/series?format=json&n=3")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var d seriesDump
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatalf("json decode: %v\n%s", err, body)
	}
	if len(d.Windows) != len(seriesWindows) {
		t.Fatalf("json windows = %d, want %d", len(d.Windows), len(seriesWindows))
	}
	if d.Windows[0].Label != "1m" || d.Windows[2].Label != "1h" {
		t.Fatalf("window labels = %v, %v", d.Windows[0].Label, d.Windows[2].Label)
	}

	for _, bad := range []string{"/debug/series?n=zap", "/debug/series?format=xml"} {
		resp, err := admin.Client().Get(admin.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s status = %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestSampleTelemetryLatencyCounts checks the 1 Hz source sums the
// per-command latency histograms into one per-bucket distribution.
func TestSampleTelemetryLatencyCounts(t *testing.T) {
	srv, addr := startServer(t, func(cfg *Config) { cfg.Metrics = nil })
	_ = addr
	smp := srv.sampleTelemetry()
	if smp.LatencyCounts != nil {
		t.Fatalf("latency counts without metrics = %v", smp.LatencyCounts)
	}

	reg := metrics.NewRegistry()
	srv2, addr2 := startServer(t, func(cfg *Config) { cfg.Metrics = reg })
	rc := dialRaw(t, addr2)
	rc.send("set foo 0 0 3\r\nbar\r\n")
	rc.expect("STORED")
	rc.send("get foo\r\n")
	rc.expect("VALUE foo 0 3")
	rc.expect("bar")
	rc.expect("END")
	// The response is flushed before the histogram observation lands;
	// poll briefly instead of racing it.
	deadline := time.Now().Add(2 * time.Second)
	for {
		smp = srv2.sampleTelemetry()
		var total int64
		for _, c := range smp.LatencyCounts {
			total += c
		}
		if total >= 2 || time.Now().After(deadline) {
			if total < 2 {
				t.Fatalf("latency counts = %v, want >= 2 observations", smp.LatencyCounts)
			}
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if smp.Hits != 1 || smp.Sets != 1 || smp.Items != 1 {
		t.Fatalf("sample = %+v", smp)
	}
}

// guard against the respWriter interface drifting away from bufio.Writer in
// a way that breaks writeMRCStats' AvailableBuffer usage.
var _ respWriter = (*bufio.Writer)(nil)
