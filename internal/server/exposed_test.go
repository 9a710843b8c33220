package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/concurrent"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/server"
)

var update = flag.Bool("update", false, "rewrite testdata/exposed.golden")

// The names every surface exposes are pinned: the ordered stats keys, the
// expvar key set, and the /metrics HELP and TYPE lines plus every series'
// name and label set. They are recorded once for a KV server with the
// limiter and the observability plane on, and once for a server fronting a
// router. Values are masked, so the file pins names, not numbers.
func TestExposedNamesGolden(t *testing.T) {
	var out strings.Builder

	reg := metrics.NewRegistry()
	srv, addr := startExposed(t, server.Config{
		Store:       newExposedKV(t),
		Metrics:     reg,
		Events:      obs.NewRecorder(4, 64),
		TraceSample: 8,
		MaxInflight: 16,
	})
	writeExposed(t, &out, "kv", srv, addr, reg, nil)

	var nodes []string
	for i := 0; i < 2; i++ {
		_, a := startExposed(t, server.Config{Store: newExposedKV(t)})
		nodes = append(nodes, a)
	}
	reg = metrics.NewRegistry()
	router, err := cluster.NewRouter(cluster.RouterConfig{Nodes: nodes, Replicas: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	srv, addr = startExposed(t, server.Config{Store: router, Metrics: reg})
	writeExposed(t, &out, "router", srv, addr, reg, nodes)

	const path = "testdata/exposed.golden"
	if *update {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("exposed names differ from %s (rerun with -update to see the diff in git):\n%s", path, got)
	}
}

func newExposedKV(t *testing.T) *concurrent.KV {
	t.Helper()
	inner, err := concurrent.New("qdlp", 4096, concurrent.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	return concurrent.NewKV(inner, 4)
}

// startExposed serves cfg on a loopback listener until the test ends.
func startExposed(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	for srv.Addr() == nil {
		time.Sleep(time.Millisecond)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-errCh; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// writeExposed appends one server's section: stats keys in reply order,
// expvar keys sorted, and the /metrics exposition with sample values
// dropped. Backend addresses in node labels become node0, node1, … in
// sorted order, so series keep the order the registry gave them.
func writeExposed(t *testing.T, out *strings.Builder, name string, srv *server.Server, addr string, reg *metrics.Registry, nodes []string) {
	t.Helper()
	fmt.Fprintf(out, "== %s\n", name)

	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Write([]byte("stats\r\n")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(c)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "END" {
			break
		}
		fields := strings.Fields(line)
		if len(fields) < 3 || fields[0] != "STAT" {
			t.Fatalf("bad stats line %q", line)
		}
		fmt.Fprintf(out, "stats %s\n", fields[1])
	}

	var vars map[string]any
	if err := json.Unmarshal([]byte(srv.ExpvarMap().String()), &vars); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(vars))
	for k := range vars {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "expvar %s\n", k)
	}

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	nodes = append([]string(nil), nodes...)
	sort.Strings(nodes)
	for i, n := range nodes {
		text = strings.ReplaceAll(text, `"`+n+`"`, fmt.Sprintf(`"node%d"`, i))
	}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		fmt.Fprintf(out, "metrics %s\n", line)
	}
}

// Every looked-up key is counted once, by the store, whichever command
// looked it up: a gete of an absent key moves get_misses and cmd_get by
// exactly one, on a KV server and on a router front alike, and after mixed
// traffic the stats reply and /metrics report the same hits and misses.
func TestOneCountPerGet(t *testing.T) {
	for _, name := range []string{"kv", "router"} {
		t.Run(name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			var store server.Store = newExposedKV(t)
			if name == "router" {
				var nodes []string
				for i := 0; i < 2; i++ {
					_, a := startExposed(t, server.Config{Store: newExposedKV(t)})
					nodes = append(nodes, a)
				}
				router, err := cluster.NewRouter(cluster.RouterConfig{Nodes: nodes, Replicas: 2, Metrics: reg})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(router.Close)
				store = router
			}
			_, addr := startExposed(t, server.Config{Store: store, Metrics: reg})
			c, err := server.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			stats := func() (gets, hits, misses int64) {
				t.Helper()
				st, err := c.Stats()
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range []struct {
					name string
					dst  *int64
				}{{"cmd_get", &gets}, {"get_hits", &hits}, {"get_misses", &misses}} {
					if *f.dst, err = server.StatInt(st, f.name); err != nil {
						t.Fatal(err)
					}
				}
				return gets, hits, misses
			}

			g0, h0, m0 := stats()
			if _, _, _, _, found, err := c.GetExp([]byte("absent")); err != nil || found {
				t.Fatalf("gete absent: found=%v err=%v", found, err)
			}
			g1, h1, m1 := stats()
			if g1-g0 != 1 || m1-m0 != 1 || h1 != h0 {
				t.Fatalf("gete of an absent key moved cmd_get by %d, get_misses by %d, get_hits by %d; want 1, 1, 0",
					g1-g0, m1-m0, h1-h0)
			}

			keys := make([][]byte, 16)
			for i := range keys[:14] {
				keys[i] = []byte(fmt.Sprintf("k%02d", i))
				if err := c.Set(keys[i], 0, []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			keys[14], keys[15] = []byte("absent"), keys[3]
			if _, found, err := c.Get(keys[0]); err != nil || !found {
				t.Fatalf("get: found=%v err=%v", found, err)
			}
			if _, _, _, found, err := c.GetWith(keys[1]); err != nil || !found {
				t.Fatalf("gets: found=%v err=%v", found, err)
			}
			if _, _, _, _, found, err := c.GetExp(keys[2]); err != nil || !found {
				t.Fatalf("gete: found=%v err=%v", found, err)
			}
			vals, err := c.GetMulti(keys)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range vals {
				if v.Found != (i != 14) {
					t.Fatalf("multi-get key %d %q: found=%v", i, keys[i], v.Found)
				}
			}
			if found, err := c.Delete(keys[4]); err != nil || !found {
				t.Fatalf("delete: found=%v err=%v", found, err)
			}

			g2, h2, m2 := stats()
			if h2-h1 != 3+15 || m2-m1 != 1 || g2-g1 != 3+16 {
				t.Fatalf("mixed traffic moved cmd_get by %d, get_hits by %d, get_misses by %d; want 19, 18, 1",
					g2-g1, h2-h1, m2-m1)
			}
			if got := scrape(t, reg, "cache_hits_total"); got != h2 {
				t.Errorf("cache_hits_total{side=\"server\"} = %d, stats get_hits = %d", got, h2)
			}
			if got := scrape(t, reg, "cache_misses_total"); got != m2 {
				t.Errorf("cache_misses_total{side=\"server\"} = %d, stats get_misses = %d", got, m2)
			}
		})
	}
}

// scrape reads family's side="server" sample from reg's exposition.
func scrape(t *testing.T, reg *metrics.Registry, family string) int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, family+"{") && strings.Contains(line, `side="server"`) {
			var v int64
			if _, err := fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &v); err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	t.Fatalf("no %s{side=\"server\"} sample", family)
	return 0
}
