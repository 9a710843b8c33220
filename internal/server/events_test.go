package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/concurrent"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// newAdminServer builds a Server without a listener, for tests that only
// exercise the admin surface (no protocol traffic, nothing to drain).
func newAdminServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	inner, err := concurrent.New("qdlp", 4096, concurrent.WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Store: concurrent.NewKV(inner, 8)}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// The text rendering is an operator interface: its format is pinned by this
// golden test so greps and cut(1) pipelines keep working across releases.
func TestWriteEventsTextGolden(t *testing.T) {
	d := eventsDump{
		EventsTotal:   5,
		EventsDropped: 1,
		SpansTotal:    2,
		SpansDropped:  0,
		SlowRequests:  1,
		Events: []eventJSON{
			toEventJSON(obs.Event{Seq: 0, Nanos: 1000, Key: 0x2a, Kind: obs.EvAdmit}),
			toEventJSON(obs.Event{Seq: 1, Nanos: 2000, Key: 0x2a, Kind: obs.EvDemoteGhost, Reason: obs.ReasonProbationOverflow}),
			toEventJSON(obs.Event{Seq: 2, Nanos: 3000, Key: 0x2a, Kind: obs.EvGhostReadmit}),
			toEventJSON(obs.Event{Seq: 3, Nanos: 4000, Key: 0x2a, Kind: obs.EvEvict, Reason: obs.ReasonMainClock, Freq: 2}),
		},
		Spans: []spanJSON{
			toSpanJSON(obs.Span{Seq: 0, Start: 1500, Key: 0x2a, Op: uint8(OpGet), Outcome: OutcomeHit,
				ParseNs: 100, DispatchNs: 200, FlushNs: 300}),
			toSpanJSON(obs.Span{Seq: 1, Start: 2500, Key: 0x2a, Op: uint8(OpSet), Outcome: OutcomeStored,
				Slow: true, ParseNs: 1000, DispatchNs: 2000, FlushNs: 3000}),
		},
	}
	var sb strings.Builder
	writeEventsText(&sb, d)
	const golden = `# events total=5 dropped=1
seq=0 t=1000 key=000000000000002a kind=admit reason=none freq=0
seq=1 t=2000 key=000000000000002a kind=demote-ghost reason=probation-overflow freq=0
seq=2 t=3000 key=000000000000002a kind=ghost-readmit reason=none freq=0
seq=3 t=4000 key=000000000000002a kind=evict reason=main-clock freq=2
# spans total=2 dropped=0 slow=1
seq=0 start=1500 key=000000000000002a op=get outcome=hit slow=false parse_ns=100 dispatch_ns=200 flush_ns=300
seq=1 start=2500 key=000000000000002a op=set outcome=stored slow=true parse_ns=1000 dispatch_ns=2000 flush_ns=3000
`
	if sb.String() != golden {
		t.Errorf("text rendering drifted from golden:\ngot:\n%swant:\n%s", sb.String(), golden)
	}
}

func TestAdminDebugVars(t *testing.T) {
	srv := newAdminServer(t, nil)
	admin := httptest.NewServer(srv.AdminMux(nil))
	defer admin.Close()

	resp, err := admin.Client().Get(admin.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars status = %d", resp.StatusCode)
	}
	var vars map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Error("/debug/vars missing memstats")
	}
}

// The /debug/events endpoint end to end: a QDLP-backed server with a
// recorder attached replays a key's full probation → ghost → main lifecycle
// through real protocol traffic.
func TestDebugEventsLifecycleEndToEnd(t *testing.T) {
	rec := obs.NewRecorder(8, 4096)
	srv, addr := startServer(t, func(cfg *Config) {
		cfg.Store = testKV(t, concurrent.WithRecorder(rec))
		cfg.Events = rec
		cfg.TraceSample = 1 // every request leaves a span
	})
	admin := httptest.NewServer(srv.AdminMux(nil))
	defer admin.Close()

	rc := dialRaw(t, addr)
	rc.send("set watched 0 0 5\r\nhello\r\n")
	rc.expect("STORED")
	// Push "watched" through its shard's probationary FIFO untouched: the
	// per-shard probation holds ~51 of 4096/8 slots, so a thousand filler
	// keys overflow every shard's probation several times over.
	for i := 0; i < 1000; i++ {
		rc.send(fmt.Sprintf("set filler-%04d 0 0 1 noreply\r\nx\r\n", i))
	}
	rc.send("get watched\r\n")
	rc.expect("END") // demoted: the one-hit wonder is gone
	rc.send("set watched 0 0 5\r\nagain\r\n")
	rc.expect("STORED") // ghost hit: readmitted to the main ring

	resp, err := admin.Client().Get(admin.URL + "/debug/events?key=watched&format=json&n=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var d eventsDump
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, ev := range d.Events {
		kinds = append(kinds, ev.Kind)
	}
	want := []string{"admit", "demote-ghost", "ghost-readmit"}
	if len(kinds) != len(want) {
		t.Fatalf("lifecycle kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("lifecycle kinds = %v, want %v", kinds, want)
		}
	}
	if d.Events[1].Reason != "probation-overflow" {
		t.Errorf("demotion reason = %q", d.Events[1].Reason)
	}
	if d.EventsTotal == 0 {
		t.Error("events_total not exported")
	}
	// Every request was sampled: the spans section carries real traffic
	// with phase timings.
	if d.SpansTotal == 0 || len(d.Spans) == 0 {
		t.Fatalf("no spans recorded: total=%d retained=%d", d.SpansTotal, len(d.Spans))
	}
	var sawStored bool
	for _, sp := range d.Spans {
		if sp.Op == "set" && sp.Outcome == "stored" {
			sawStored = true
		}
		if sp.DispatchNs <= 0 {
			t.Errorf("span %d has no dispatch time: %+v", sp.Seq, sp)
		}
	}
	if !sawStored {
		t.Error("no set/stored span found")
	}

	// The text form of the same dump has both sections.
	resp, err = admin.Client().Get(admin.URL + "/debug/events?key=watched")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	if !strings.Contains(text, "kind=demote-ghost reason=probation-overflow") ||
		!strings.Contains(text, "# spans total=") {
		t.Errorf("/debug/events text form incomplete:\n%s", text)
	}

	// Unknown format is rejected.
	resp, err = admin.Client().Get(admin.URL + "/debug/events?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("format=xml status = %d, want 400", resp.StatusCode)
	}
}

// /debug/trace follows one key live: events recorded after the request
// started still appear in the response.
func TestDebugTraceFollowsKey(t *testing.T) {
	rec := obs.NewRecorder(8, 4096)
	srv, addr := startServer(t, func(cfg *Config) {
		cfg.Store = testKV(t, concurrent.WithRecorder(rec))
		cfg.Events = rec
	})
	admin := httptest.NewServer(srv.AdminMux(nil))
	defer admin.Close()

	rc := dialRaw(t, addr)
	rc.send("set traced 0 0 1\r\nx\r\n")
	rc.expect("STORED")

	// Without wait: history only.
	resp, err := admin.Client().Get(admin.URL + "/debug/trace?key=traced")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "kind=admit") {
		t.Fatalf("trace history missing admit:\n%s", body)
	}

	// With wait: an expire emitted mid-request is streamed.
	done := make(chan string, 1)
	go func() {
		resp, err := admin.Client().Get(admin.URL + "/debug/trace?key=traced&wait=2s")
		if err != nil {
			done <- "error: " + err.Error()
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		done <- string(b)
	}()
	time.Sleep(100 * time.Millisecond) // let the watch replay history
	rc.send("set traced 0 -1 1\r\nx\r\n")
	rc.expect("STORED")
	select {
	case out := <-done:
		if !strings.Contains(out, "kind=expire reason=expired") {
			t.Fatalf("trace follow missing live expire event:\n%s", out)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("trace follow did not return")
	}

	// Missing key is rejected.
	resp, err = admin.Client().Get(admin.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing key status = %d, want 400", resp.StatusCode)
	}
}

// With tracing off the endpoints still answer, with empty sections.
func TestDebugEventsDisabled(t *testing.T) {
	srv := newAdminServer(t, nil)
	admin := httptest.NewServer(srv.AdminMux(nil))
	defer admin.Close()
	resp, err := admin.Client().Get(admin.URL + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "# events total=0 dropped=0") {
		t.Errorf("disabled dump = %q", body)
	}
}

// The slow-request threshold records a span even when sampling is off.
func TestSlowRequestAlwaysRecorded(t *testing.T) {
	rec := obs.NewRecorder(1, 64)
	srv, addr := startServer(t, func(cfg *Config) {
		cfg.Events = rec
		cfg.Store = testKV(t, concurrent.WithRecorder(rec))
		cfg.SlowRequest = time.Nanosecond // everything is slow
	})
	rc := dialRaw(t, addr)
	rc.send("set s 0 0 1\r\nx\r\n")
	rc.expect("STORED")
	// Record counts a slow span before it publishes the slot, so wait for
	// the span itself, not for the count.
	deadline := time.Now().Add(5 * time.Second)
	spans := srv.Spans().Snapshot(0)
	for len(spans) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no span recorded")
		}
		time.Sleep(10 * time.Millisecond)
		spans = srv.Spans().Snapshot(0)
	}
	if !spans[0].Slow || srv.Spans().SlowCount() == 0 {
		t.Fatalf("spans = %+v, slow count %d", spans, srv.Spans().SlowCount())
	}
	// Sampling was off, so only the slow path recorded.
	if srv.cfg.TraceSample != 0 {
		t.Fatal("test premise broken: sampling enabled")
	}
}

// Obs drop counters ride the metrics registry.
func TestObsMetricsExported(t *testing.T) {
	reg := metrics.NewRegistry()
	rec := obs.NewRecorder(1, 64)
	srv, addr := startServer(t, func(cfg *Config) {
		cfg.Metrics = reg
		cfg.Events = rec
		cfg.Store = testKV(t, concurrent.WithRecorder(rec))
		cfg.TraceSample = 1
	})
	admin := httptest.NewServer(srv.AdminMux(reg))
	defer admin.Close()

	rc := dialRaw(t, addr)
	rc.send("set m 0 0 1\r\nx\r\n")
	rc.expect("STORED")

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := admin.Client().Get(admin.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		s := string(body)
		if strings.Contains(s, "cache_obs_events_total 1") &&
			strings.Contains(s, "cache_obs_events_dropped_total 0") &&
			strings.Contains(s, "cache_obs_spans_total 1") &&
			strings.Contains(s, "cache_obs_slow_requests_total 0") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("/metrics missing obs counters:\n%s", s)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// The key query parameter filters by the same digest the data path uses.
func TestDebugEventsKeyFilterMatchesDigest(t *testing.T) {
	rec := obs.NewRecorder(4, 256)
	rec.Record(obs.Event{Nanos: 1, Key: concurrent.Digest([]byte("mine")), Kind: obs.EvAdmit})
	rec.Record(obs.Event{Nanos: 2, Key: concurrent.Digest([]byte("other")), Kind: obs.EvAdmit})
	srv := newAdminServer(t, func(cfg *Config) { cfg.Events = rec })
	d := srv.eventsDumpFor("mine", 0)
	if len(d.Events) != 1 {
		t.Fatalf("filtered events = %+v", d.Events)
	}
	if want := fmt.Sprintf("%016x", concurrent.Digest([]byte("mine"))); d.Events[0].Key != want {
		t.Fatalf("key = %s, want %s", d.Events[0].Key, want)
	}
}
