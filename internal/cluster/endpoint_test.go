package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/concurrent"
	"repro/internal/server"
)

// A router's multi-get reads hot keys like its single get does: the read
// that promotes a key replicates it, and a replica that misses is re-read
// from the owner — so a hot key never misses because its batch happened to
// round-robin onto an empty replica.
func TestRouterMultiGetReplicatesAndFallsBack(t *testing.T) {
	addrs := make([]string, 2)
	for i := range addrs {
		addrs[i], _ = startBackend(t)
	}
	router, err := NewRouter(RouterConfig{Nodes: addrs, Replicas: 2, HotThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	c := dialNode(t, startFront(t, router))
	hk := []byte("hk")
	if err := c.Set(hk, 3, []byte("hot")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		cold := []byte(fmt.Sprintf("cold%02d", i))
		vals, err := c.GetMulti([][]byte{hk, cold})
		if err != nil {
			t.Fatal(err)
		}
		if !vals[0].Found || string(vals[0].Value) != "hot" || vals[0].Flags != 3 {
			t.Fatalf("multi-get %d missed the hot key: %+v", i, vals[0])
		}
		if vals[1].Found {
			t.Fatalf("multi-get %d found never-set key %s", i, cold)
		}
	}
	nodes, _, promos, _, _, _ := router.Snapshot()
	if promos < 1 {
		t.Errorf("hot promotions = %d, want >= 1", promos)
	}
	var replicaReads int64
	for _, n := range nodes {
		replicaReads += n.ReplicaReads
	}
	if replicaReads == 0 {
		t.Error("no multi-get read was served by a replica")
	}
	for _, a := range addrs {
		if v, found, err := dialNode(t, a).Get(hk); err != nil || !found || string(v) != "hot" {
			t.Fatalf("replica set member %s: %q found=%v err=%v", a, v, found, err)
		}
	}
}

// currConns reads a backend's open-connection gauge over the stats client c
// (which is one of the connections it counts).
func currConns(t *testing.T, c *server.Client) int64 {
	t.Helper()
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	n, err := server.StatInt(st, "curr_connections")
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// Many front connections share one router's endpoints while a third
// backend leaves and rejoins the ring over and over. A pooled client is
// handed from request to request, so a reply left half-read by one request
// would be read by the next as its own: every get must return its own
// key's value or a miss, never another key's. After Close, the router
// holds no backend connection open.
func TestRouterChurnKeepsRepliesWithTheirKeys(t *testing.T) {
	addrs := make([]string, 3)
	stats := make([]*server.Client, 3)
	before := make([]int64, 3)
	for i := range addrs {
		addrs[i], _ = startBackend(t)
		stats[i] = dialNode(t, addrs[i])
		before[i] = currConns(t, stats[i])
	}
	router, err := NewRouter(RouterConfig{Nodes: addrs, Replicas: 2, HotThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	front := startFront(t, router)

	const workers, rounds = 6, 300
	var done atomic.Bool
	churned := make(chan int)
	go func() {
		cycles := 0
		for !done.Load() {
			if err := router.RemoveNode(addrs[2]); err != nil {
				t.Error(err)
				break
			}
			time.Sleep(time.Millisecond)
			if err := router.AddNode(addrs[2]); err != nil {
				t.Error(err)
				break
			}
			time.Sleep(time.Millisecond)
			cycles++
		}
		churned <- cycles
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := server.Dial(front)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			key := func(i int) []byte { return []byte(fmt.Sprintf("w%d-k%02d", w, i%24)) }
			check := func(k, v []byte, found bool) bool {
				if found && string(v) != "val:"+string(k) {
					t.Errorf("get %s returned %q", k, v)
					return false
				}
				return true
			}
			for i := 0; i < rounds; i++ {
				k := key(i)
				if err := c.Set(k, 0, []byte("val:"+string(k))); err != nil {
					t.Error(err)
					return
				}
				v, found, err := c.Get(key(i * 7))
				if err != nil {
					t.Error(err)
					return
				}
				if !check(key(i*7), v, found) {
					return
				}
				batch := [][]byte{key(i + 1), key(i + 5), key(i + 11)}
				vals, err := c.GetMulti(batch)
				if err != nil {
					t.Error(err)
					return
				}
				for j, mv := range vals {
					if !check(batch[j], mv.Value, mv.Found) {
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	done.Store(true)
	if cycles := <-churned; cycles == 0 {
		t.Error("the third backend never left and rejoined during the run")
	}

	router.Close()
	deadline := time.Now().Add(5 * time.Second)
	for i := range addrs {
		for {
			n := currConns(t, stats[i])
			if n == before[i] {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("backend %d holds %d connections after the router closed, %d before it opened", i, n, before[i])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// A cluster.Client's Retries and Reconnects keep counting the attempts an
// endpoint made after RemoveNode closes it.
func TestClusterClientCountsSurviveRemoveNode(t *testing.T) {
	live, _ := startBackend(t)
	backend, _ := startBackend(t)
	proxy, err := chaos.NewProxy("", backend, chaos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	flaky := proxy.Addr()
	cl, err := NewClient(ClientConfig{
		Endpoints: []string{live, flaky},
		Dial:      server.DialConfig{MaxRetries: 1, ConnectTimeout: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var key []byte
	for i := 0; key == nil; i++ {
		if k := []byte(fmt.Sprintf("rk%04d", i)); cl.Ring().Lookup(concurrent.Digest(k)) == flaky {
			key = k
		}
	}
	if err := cl.Set(key, 0, []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Tearing the proxied connection down makes the next get fail once on
	// the dead connection, then retry on a fresh one.
	if err := proxy.SwapConfig(chaos.Config{}); err != nil {
		t.Fatal(err)
	}
	if v, found, err := cl.Get(key); err != nil || !found || string(v) != "v" {
		t.Fatalf("get across the torn connection: %q found=%v err=%v", v, found, err)
	}
	retries, reconnects := cl.Retries(), cl.Reconnects()
	if retries == 0 || reconnects == 0 {
		t.Fatalf("retries=%d reconnects=%d after a torn connection, want both > 0", retries, reconnects)
	}
	if err := cl.RemoveNode(flaky); err != nil {
		t.Fatal(err)
	}
	if r, rc := cl.Retries(), cl.Reconnects(); r != retries || rc != reconnects {
		t.Fatalf("after RemoveNode retries=%d reconnects=%d, want %d and %d", r, rc, retries, reconnects)
	}
}
