package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/concurrent"
	"repro/internal/obs"
	"repro/internal/server"
)

// startBackend launches one real cache node on a loopback listener. The
// returned stop is idempotent, so tests can kill a node mid-flight and
// still let Cleanup run.
func startBackend(t *testing.T) (addr string, stop func()) {
	t.Helper()
	inner, err := concurrent.New("qdlp", 8192, concurrent.WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Store:       concurrent.NewKV(inner, 8),
		MaxConns:    64,
		IdleTimeout: time.Minute,
	})
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
	var once sync.Once
	stop = func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Errorf("backend shutdown: %v", err)
			}
			if err := <-errCh; err != nil {
				t.Errorf("backend serve: %v", err)
			}
		})
	}
	t.Cleanup(stop)
	return ln.Addr().String(), stop
}

// startFront serves store (normally a Router) as a front cacheserver.
func startFront(t *testing.T, store server.Store) (addr string) {
	t.Helper()
	srv, err := server.New(server.Config{
		Store:       store,
		MaxConns:    64,
		IdleTimeout: time.Minute,
		Logger:      slog.New(slog.DiscardHandler),
	})
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
			t.Errorf("front shutdown: %v", err)
		}
		if err := <-errCh; err != nil {
			t.Errorf("front serve: %v", err)
		}
	})
	return ln.Addr().String()
}

func dialNode(t *testing.T, addr string) *server.Client {
	t.Helper()
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// The cluster client places every key on exactly its ring owner: a write
// through the client lands on one node, the one the ring names, and nowhere
// else. GetMulti returns all keys in request order across owners.
func TestClusterClientRouting(t *testing.T) {
	addrs := make([]string, 3)
	for i := range addrs {
		addrs[i], _ = startBackend(t)
	}
	cl, err := NewClient(ClientConfig{Endpoints: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const N = 200
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%03d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("v%03d", i)) }
	for i := 0; i < N; i++ {
		if err := cl.Set(key(i), uint32(i), val(i)); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}
	for i := 0; i < N; i++ {
		v, found, err := cl.Get(key(i))
		if err != nil || !found || string(v) != string(val(i)) {
			t.Fatalf("get %d: %q found=%v err=%v", i, v, found, err)
		}
	}

	// Placement: each key exists only on its owner.
	direct := make(map[string]*server.Client, len(addrs))
	for _, a := range addrs {
		direct[a] = dialNode(t, a)
	}
	perNode := map[string]int{}
	for i := 0; i < N; i++ {
		owner := cl.Ring().Lookup(concurrent.Digest(key(i)))
		perNode[owner]++
		for _, a := range addrs {
			_, found, err := direct[a].Get(key(i))
			if err != nil {
				t.Fatal(err)
			}
			if found != (a == owner) {
				t.Fatalf("key %d: found=%v on %s, owner %s", i, found, a, owner)
			}
		}
	}
	if len(perNode) != len(addrs) {
		t.Fatalf("keys landed on %d of %d nodes: %v", len(perNode), len(addrs), perNode)
	}

	// Multi-get spans owners, preserves order, reports misses.
	keys := make([][]byte, 0, N+1)
	for i := 0; i < N; i++ {
		keys = append(keys, key(i))
		if i == 57 {
			keys = append(keys, []byte("nosuchkey"))
		}
	}
	vals, err := cl.GetMulti(keys)
	if err != nil {
		t.Fatal(err)
	}
	for j, k := range keys {
		mv := vals[j]
		if string(k) == "nosuchkey" {
			if mv.Found {
				t.Fatal("phantom hit for missing key")
			}
			continue
		}
		if !mv.Found || string(mv.Value) != strings.Replace(string(k), "k", "v", 1) {
			t.Fatalf("multiget[%d] %s: %q found=%v", j, k, mv.Value, mv.Found)
		}
	}
}

// A router fronting three nodes serves the full protocol; a key touched
// past the hot threshold is replicated to its ring successor (visible by
// asking the backends directly), the promotion is recorded as an obs
// event, and a delete removes every copy.
func TestRouterForwardsAndReplicates(t *testing.T) {
	addrs := make([]string, 3)
	for i := range addrs {
		addrs[i], _ = startBackend(t)
	}
	rec := obs.NewRecorder(4, 64)
	router, err := NewRouter(RouterConfig{
		Nodes:        addrs,
		Replicas:     2,
		HotThreshold: 2,
		Events:       rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	front := startFront(t, router)
	c := dialNode(t, front)

	key, val := []byte("hotkey"), []byte("hotvalue")
	if err := c.Set(key, 5, val); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		v, flags, _, found, err := c.GetWith(key)
		if err != nil || !found || string(v) != "hotvalue" || flags != 5 {
			t.Fatalf("get %d: %q flags=%d found=%v err=%v", i, v, flags, found, err)
		}
	}

	// Both replica owners hold the key now.
	digest := concurrent.Digest(key)
	owners := router.Ring().LookupN(digest, 2, nil)
	if len(owners) != 2 {
		t.Fatalf("LookupN returned %v", owners)
	}
	for _, a := range owners {
		v, found, err := dialNode(t, a).Get(key)
		if err != nil || !found || string(v) != "hotvalue" {
			t.Fatalf("replica %s: %q found=%v err=%v", a, v, found, err)
		}
	}

	// The promotion surfaced as a lifecycle event on the key's digest.
	sawReplicate := false
	for _, ev := range rec.KeyEvents(digest, 32) {
		if ev.Kind == obs.EvHotReplicate {
			sawReplicate = true
		}
	}
	if !sawReplicate {
		t.Error("no EvHotReplicate event recorded for promoted key")
	}

	// A hot write fans to the whole replica set.
	if err := c.Set(key, 5, []byte("hotvalue2")); err != nil {
		t.Fatal(err)
	}
	for _, a := range owners {
		v, found, _ := dialNode(t, a).Get(key)
		if !found || string(v) != "hotvalue2" {
			t.Fatalf("replica %s stale after hot write: %q found=%v", a, v, found)
		}
	}

	// Multi-get through the front spans the ring and keeps order.
	if err := c.Set([]byte("other"), 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	vals, err := c.GetMulti([][]byte{key, []byte("missing"), []byte("other")})
	if err != nil {
		t.Fatal(err)
	}
	if !vals[0].Found || string(vals[0].Value) != "hotvalue2" ||
		vals[1].Found ||
		!vals[2].Found || string(vals[2].Value) != "x" {
		t.Fatalf("front multiget wrong: %+v", vals)
	}

	// Delete removes every copy.
	if found, err := c.Delete(key); err != nil || !found {
		t.Fatalf("delete: found=%v err=%v", found, err)
	}
	for _, a := range owners {
		if _, found, _ := dialNode(t, a).Get(key); found {
			t.Fatalf("replica %s still has deleted key", a)
		}
	}

	// The stats surface names the router and the counters moved.
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["cache"] != "router" {
		t.Errorf("stats cache = %q, want router", st["cache"])
	}
	nodes, _, promos, _, _, _ := router.Snapshot()
	if promos < 1 {
		t.Errorf("hot promotions = %d, want >= 1", promos)
	}
	var routed, replicaWrites int64
	for _, n := range nodes {
		routed += n.RoutedGet + n.RoutedSet + n.RoutedDelete
		replicaWrites += n.ReplicaWrites
	}
	if routed == 0 || replicaWrites == 0 {
		t.Errorf("counters did not move: routed=%d replica_writes=%d", routed, replicaWrites)
	}
}

// A key asked for twice in one multi-get through the router is answered
// twice, and counted as two hits: the router forwards the duplicate to the
// owner, whose reply carries one VALUE per occurrence.
func TestRouterMultiGetDuplicateKey(t *testing.T) {
	addrs := make([]string, 2)
	for i := range addrs {
		addrs[i], _ = startBackend(t)
	}
	router, err := NewRouter(RouterConfig{Nodes: addrs, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	c := dialNode(t, startFront(t, router))
	if err := c.Set([]byte("a"), 0, []byte("va")); err != nil {
		t.Fatal(err)
	}
	vals, err := c.GetMulti([][]byte{[]byte("a"), []byte("a")})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if !v.Found || string(v.Value) != "va" {
			t.Fatalf("key %d: %q found=%v", i, v.Value, v.Found)
		}
	}
	if st := router.Stats(); st.Hits != 2 || st.Misses != 0 {
		t.Fatalf("router counted %d hits, %d misses; want 2, 0", st.Hits, st.Misses)
	}
}

// The router's occupancy is the fleet's: its value and buffer bytes are
// the sums of what its backends' stats report.
func TestRouterStatsSumFleetOccupancy(t *testing.T) {
	addrs := make([]string, 2)
	for i := range addrs {
		addrs[i], _ = startBackend(t)
	}
	router, err := NewRouter(RouterConfig{Nodes: addrs, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	c := dialNode(t, startFront(t, router))
	for i := 0; i < 40; i++ {
		if err := c.Set([]byte(fmt.Sprintf("k%02d", i)), 0, make([]byte, 50*i)); err != nil {
			t.Fatal(err)
		}
	}
	var values, buffers int64
	for _, a := range addrs {
		st, err := dialNode(t, a).Stats()
		if err != nil {
			t.Fatal(err)
		}
		v, err := server.StatInt(st, "curr_bytes")
		if err != nil {
			t.Fatal(err)
		}
		b, err := server.StatInt(st, "buffer_bytes")
		if err != nil {
			t.Fatal(err)
		}
		values, buffers = values+v, buffers+b
	}
	router.statsMu.Lock()
	router.statsAt = time.Time{} // drop a poll cached before the sets
	router.statsMu.Unlock()
	st := router.Stats()
	if st.ValueBytes != values || st.BufferBytes != buffers {
		t.Fatalf("router reports %d value and %d buffer bytes, the backends %d and %d", st.ValueBytes, st.BufferBytes, values, buffers)
	}
	if buffers <= values {
		t.Fatalf("backends hold %d buffer bytes for %d value bytes", buffers, values)
	}
}

// A dead backend degrades like a cache should: reads of its keys miss,
// writes drop, the front connection never sees an error, and the failure
// is tallied per node. Removing the node rehomes its keys.
func TestRouterNodeDownReadsMissWritesDrop(t *testing.T) {
	addrA, _ := startBackend(t)
	addrB, stopB := startBackend(t)
	router, err := NewRouter(RouterConfig{
		Nodes:    []string{addrA, addrB},
		Replicas: 1, // strict single ownership: a dead node's keys must miss
		Dial:     server.DialConfig{ConnectTimeout: 200 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	front := startFront(t, router)
	c := dialNode(t, front)

	// Find one key per node.
	var keyA, keyB []byte
	for i := 0; keyA == nil || keyB == nil; i++ {
		k := []byte(fmt.Sprintf("key%04d", i))
		switch router.Ring().Lookup(concurrent.Digest(k)) {
		case addrA:
			if keyA == nil {
				keyA = k
			}
		case addrB:
			if keyB == nil {
				keyB = k
			}
		}
	}
	for _, k := range [][]byte{keyA, keyB} {
		if err := c.Set(k, 0, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	stopB()

	// B's key: read misses, write drops — no error either way.
	if _, found, err := c.Get(keyB); err != nil || found {
		t.Fatalf("dead-node get: found=%v err=%v (want clean miss)", found, err)
	}
	if err := c.Set(keyB, 0, []byte("v2")); err != nil {
		t.Fatalf("dead-node set errored through the front: %v", err)
	}
	// A's key is untouched.
	if v, found, err := c.Get(keyA); err != nil || !found || string(v) != "v" {
		t.Fatalf("live-node get: %q found=%v err=%v", v, found, err)
	}
	nodes, _, _, _, _, _ := router.Snapshot()
	var errsB int64
	for _, n := range nodes {
		if n.Addr == addrB {
			errsB = n.ForwardErrors
		}
	}
	if errsB < 2 {
		t.Errorf("forward errors for dead node = %d, want >= 2", errsB)
	}

	// Operator removes the dead node: its keys rehome and serve again.
	if err := router.RemoveNode(addrB); err != nil {
		t.Fatal(err)
	}
	if owner := router.Ring().Lookup(concurrent.Digest(keyB)); owner != addrA {
		t.Fatalf("after remove, key owner = %s, want %s", owner, addrA)
	}
	if _, found, err := c.Get(keyB); err != nil || found {
		t.Fatalf("rehomed key should miss until refilled: found=%v err=%v", found, err)
	}
	if err := c.Set(keyB, 0, []byte("v3")); err != nil {
		t.Fatal(err)
	}
	if v, found, err := c.Get(keyB); err != nil || !found || string(v) != "v3" {
		t.Fatalf("rehomed key after refill: %q found=%v err=%v", v, found, err)
	}
}

// The /cluster admin endpoint reports topology in text and JSON and
// mutates it only via POST.
func TestRouterAdminHandler(t *testing.T) {
	addrA, _ := startBackend(t)
	addrB, _ := startBackend(t)
	router, err := NewRouter(RouterConfig{Nodes: []string{addrA, addrB}})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	h := router.AdminHandler()

	do := func(method, target string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(method, target, nil))
		return rr
	}

	rr := do("GET", "/cluster")
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), "cluster nodes=2") {
		t.Fatalf("GET /cluster: %d %q", rr.Code, rr.Body.String())
	}
	if !strings.Contains(rr.Body.String(), "node "+addrA) {
		t.Errorf("text page missing node %s: %q", addrA, rr.Body.String())
	}

	rr = do("GET", "/cluster?format=json")
	var page clusterPage
	if err := json.Unmarshal(rr.Body.Bytes(), &page); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(page.Nodes) != 2 || page.Replicas != 2 || len(page.PerNode) != 2 {
		t.Fatalf("JSON page wrong: %+v", page)
	}

	// Topology via POST.
	fake := "127.0.0.1:1"
	if rr = do("POST", "/cluster?op=add&node="+url.QueryEscape(fake)); rr.Code != 200 {
		t.Fatalf("POST add: %d %q", rr.Code, rr.Body.String())
	}
	if got := router.Ring().Len(); got != 3 {
		t.Fatalf("ring size after add = %d", got)
	}
	if rr = do("POST", "/cluster?op=add&node="+url.QueryEscape(fake)); rr.Code != 409 {
		t.Fatalf("duplicate add: %d, want 409", rr.Code)
	}
	if rr = do("POST", "/cluster?op=remove&node="+url.QueryEscape(fake)); rr.Code != 200 {
		t.Fatalf("POST remove: %d %q", rr.Code, rr.Body.String())
	}
	if rr = do("POST", "/cluster?op=remove&node=ghost:1"); rr.Code != 409 {
		t.Fatalf("remove absent: %d, want 409", rr.Code)
	}
	if rr = do("POST", "/cluster?op=chaos&node=x:1"); rr.Code != 400 {
		t.Fatalf("unknown op: %d, want 400", rr.Code)
	}
	if rr = do("POST", "/cluster?op=add"); rr.Code != 400 {
		t.Fatalf("missing node: %d, want 400", rr.Code)
	}
	if rr = do("PUT", "/cluster"); rr.Code != 405 {
		t.Fatalf("PUT: %d, want 405", rr.Code)
	}

	// Removed-then-readded nodes keep their counters (one series per name).
	nodes, _, _, _, adds, drops := router.Snapshot()
	if adds != 1 || drops != 1 {
		t.Errorf("topology counters add=%d drop=%d, want 1/1", adds, drops)
	}
	sawFakeHistorical := false
	for _, n := range nodes {
		if n.Addr == fake && !n.Live {
			sawFakeHistorical = true
		}
	}
	if !sawFakeHistorical {
		t.Error("removed node vanished from snapshot instead of staying historical")
	}
}

// RunLoad drives a cluster through the LoadConn seam: the DialFunc hook
// turns each load connection into a ring-routing cluster client, and the
// run's sets land spread across the backends.
func TestRunLoadAcrossCluster(t *testing.T) {
	addrs := make([]string, 3)
	for i := range addrs {
		addrs[i], _ = startBackend(t)
	}
	res, err := server.RunLoad(server.LoadConfig{
		Conns:    2,
		TotalOps: 4000,
		KeySpace: 500,
		Seed:     7,
		ValueLen: 32,
		DialFunc: func(int) (server.LoadConn, error) {
			return NewClient(ClientConfig{Endpoints: addrs})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 4000 || res.Errors != 0 {
		t.Fatalf("ops=%d errors=%d", res.Ops, res.Errors)
	}
	if res.HitRatio() < 0.5 {
		t.Errorf("hit ratio %.3f suspiciously low for a fitting keyspace", res.HitRatio())
	}
	// Every backend holds some share of the keyspace.
	for _, a := range addrs {
		st, err := dialNode(t, a).Stats()
		if err != nil {
			t.Fatal(err)
		}
		n, err := server.StatInt(st, "curr_items")
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Errorf("backend %s holds no keys after cluster load", a)
		}
	}
}
