package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/concurrent"
	"repro/internal/overload"
	"repro/internal/server"
)

// findNode pulls one node's snapshot out of the router's full dump.
func findNode(t *testing.T, r *Router, addr string) NodeSnapshot {
	t.Helper()
	nodes, _, _, _, _, _ := r.Snapshot()
	for _, n := range nodes {
		if n.Addr == addr {
			return n
		}
	}
	t.Fatalf("node %s missing from snapshot", addr)
	return NodeSnapshot{}
}

// waitNode polls until addr's snapshot satisfies cond, or fails at the
// deadline with the last state seen.
func waitNode(t *testing.T, r *Router, addr string, what string, cond func(NodeSnapshot) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := findNode(t, r, addr)
		if cond(n) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %s never became %s: %+v", addr, what, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterBrownoutEjectReadmitE2E is the overload-plane acceptance soak:
// a router fronting three nodes keeps serving while one backend browns out
// behind a latency-injecting chaos proxy. The failure detector must eject
// the sick node from the ring, the client must ride through with zero
// visible errors (a browned node costs hit ratio, never failures), and when
// the fault clears the prober must re-admit the node and the hit ratio must
// return to within 0.05 of the steady state.
func TestClusterBrownoutEjectReadmitE2E(t *testing.T) {
	const K = 512

	addrA, _ := startBackend(t)
	addrB, _ := startBackend(t)
	addrC, _ := startBackend(t)

	// The victim hides behind a chaos proxy that starts clean; SwapConfig
	// is the brownout switch.
	proxy, err := chaos.NewProxy("", addrC, chaos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	victim := proxy.Addr()

	router, err := NewRouter(RouterConfig{
		Nodes:        []string{addrA, addrB, victim},
		Replicas:     1, // strict ownership: an ejected node's share must rehome
		Seed:         1,
		VirtualNodes: 256,
		Dial: server.DialConfig{
			// Short deadlines so a browned-out data path fails fast into the
			// router's miss/drop semantics instead of stalling the front.
			ConnectTimeout: 150 * time.Millisecond,
			ReadTimeout:    150 * time.Millisecond,
			WriteTimeout:   150 * time.Millisecond,
			MaxRetries:     1,
		},
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	front := startFront(t, router)

	cl, err := server.DialWithConfig(server.DialConfig{
		Addr:           front,
		MaxRetries:     2,
		ConnectTimeout: 2 * time.Second,
		ReadTimeout:    2 * time.Second,
		WriteTimeout:   2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	keys := make([][]byte, K)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("brown%04d", i))
	}
	value := func(i int) []byte { return []byte(fmt.Sprintf("val-%04d", i)) }

	// Cache-aside load through the front. Every error is client-visible by
	// definition — the router is supposed to absorb node failure.
	errors := 0
	rng := rand.New(rand.NewSource(7))
	pass := func(ops int) (hitRatio float64) {
		hits := 0
		for op := 0; op < ops; op++ {
			i := rng.Intn(K)
			v, found, err := cl.Get(keys[i])
			if err != nil {
				errors++
				continue
			}
			if found {
				if string(v) != string(value(i)) {
					t.Fatalf("corrupt read key %d: %q", i, v)
				}
				hits++
				continue
			}
			if err := cl.Set(keys[i], 0, value(i)); err != nil {
				errors++
			}
		}
		return float64(hits) / float64(ops)
	}

	// Phase 1 — warm, wait for the prober to establish a healthy baseline,
	// measure steady state.
	for i := range keys {
		if err := cl.Set(keys[i], 0, value(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitNode(t, router, victim, "probed healthy", func(n NodeSnapshot) bool {
		return n.Healthy && !n.Ejected
	})
	steady := pass(2 * K)
	if steady < 0.95 {
		t.Fatalf("steady-state hit ratio %.3f: keyspace should fit entirely", steady)
	}

	// Phase 2 — brown the victim out: every I/O through the proxy now eats
	// up to 2s of injected latency, far past the 100ms probe timeout and the
	// 150ms data-path deadlines. Existing connections are torn down so the
	// fault applies immediately.
	if err := proxy.SwapConfig(chaos.Config{LatencyProb: 1, Latency: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	waitNode(t, router, victim, "ejected", func(n NodeSnapshot) bool {
		return n.Ejected && !n.Healthy
	})

	// Phase 3 — load during the outage. The victim's share rehomes to the
	// survivors and refills; the client must see zero errors throughout.
	degraded := pass(3 * K)
	t.Logf("hit ratio: steady %.3f, browned-out %.3f", steady, degraded)
	if errors != 0 {
		t.Fatalf("%d client-visible errors during brownout", errors)
	}

	// Phase 4 — heal. Probes start landing again; after the readmit streak
	// the node rejoins the ring with its pre-brownout contents intact.
	if err := proxy.SwapConfig(chaos.Config{}); err != nil {
		t.Fatal(err)
	}
	waitNode(t, router, victim, "readmitted", func(n NodeSnapshot) bool {
		return !n.Ejected && n.Healthy
	})

	// Phase 5 — recovery: refill whatever moved, then hold the bar.
	pass(3 * K)
	final := pass(2 * K)
	t.Logf("hit ratio: final %.3f (steady %.3f)", final, steady)
	if final < steady-0.05 {
		t.Fatalf("hit ratio did not recover: final %.3f vs steady %.3f", final, steady)
	}
	if errors != 0 {
		t.Fatalf("%d client-visible errors escaped the router during the soak", errors)
	}

	// The lifecycle is on the record: at least one ejection and one
	// readmission for the victim, mirrored in the topology counters.
	n := findNode(t, router, victim)
	if n.Ejections < 1 || n.Readmissions < 1 {
		t.Errorf("victim lifecycle ejections=%d readmissions=%d, want >= 1 each", n.Ejections, n.Readmissions)
	}
	if !n.Live {
		t.Error("victim should still be administered (Live) after readmission")
	}
	_, _, _, _, adds, drops := router.Snapshot()
	if adds < 1 || drops < 1 {
		t.Errorf("topology counters adds=%d drops=%d, want >= 1 each", adds, drops)
	}
}

// TestHotReplicaInheritsTTL pins the TTL-propagation fix: when a hot key is
// promoted, its replica copy must carry the owner's absolute expiry (read
// back over gete), not an immortal exptime-0 clone that would outlive the
// original.
func TestHotReplicaInheritsTTL(t *testing.T) {
	addrs := make([]string, 3)
	for i := range addrs {
		addrs[i], _ = startBackend(t)
	}
	router, err := NewRouter(RouterConfig{
		Nodes:        addrs,
		Replicas:     2,
		HotThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	front := startFront(t, router)
	c := dialNode(t, front)

	const ttl = 300
	key := []byte("hotttl")
	now := time.Now().Unix()
	if err := c.SetExp(key, 9, ttl, []byte("sticky")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, found, err := c.Get(key); err != nil || !found {
			t.Fatalf("get %d: found=%v err=%v", i, found, err)
		}
	}

	owners := router.Ring().LookupN(concurrent.Digest(key), 2, nil)
	if len(owners) != 2 {
		t.Fatalf("LookupN returned %v", owners)
	}
	for _, a := range owners {
		v, flags, _, exp, found, err := dialNode(t, a).GetExp(key)
		if err != nil || !found || string(v) != "sticky" || flags != 9 {
			t.Fatalf("replica %s: %q flags=%d found=%v err=%v", a, v, flags, found, err)
		}
		if exp < now+ttl-5 || exp > now+ttl+5 {
			t.Fatalf("replica %s exptime %d, want ~%d: TTL did not propagate", a, exp, now+ttl)
		}
	}
}

// TestClusterClientBreakerAndBudget exercises the resilient client's two
// failure governors directly: a dead endpoint trips its circuit breaker so
// later calls fail fast without dialing, and a shared retry budget caps the
// fleet-wide retry volume the client may generate.
func TestClusterClientBreakerAndBudget(t *testing.T) {
	live, _ := startBackend(t)
	dead := deadAddr(t)

	budget := overload.NewRetryBudget(0.01, 2)
	cl, err := NewClient(ClientConfig{
		Endpoints: []string{live, dead},
		Dial: server.DialConfig{
			ConnectTimeout: 100 * time.Millisecond,
			MaxRetries:     1,
		},
		Budget:  budget,
		Breaker: overload.BreakerConfig{Threshold: 3, Cooldown: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Find keys owned by each endpoint.
	keyOn := func(addr string) []byte {
		for i := 0; ; i++ {
			k := []byte(fmt.Sprintf("bk%04d", i))
			if cl.Ring().Lookup(concurrent.Digest(k)) == addr {
				return k
			}
		}
	}
	liveKey, deadKey := keyOn(live), keyOn(dead)

	// The live endpoint serves normally.
	if err := cl.Set(liveKey, 0, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if v, found, err := cl.Get(liveKey); err != nil || !found || string(v) != "ok" {
		t.Fatalf("live get: %q found=%v err=%v", v, found, err)
	}

	// Hammer the dead endpoint past the breaker threshold. Every attempt
	// errors; once the breaker opens the error must be ErrBreakerOpen —
	// fail-fast, no dial.
	for i := 0; i < 10; i++ {
		if _, _, err := cl.Get(deadKey); err == nil {
			t.Fatal("get against dead endpoint succeeded")
		}
	}
	if st := cl.BreakerState(dead); st != overload.BreakerOpen {
		t.Fatalf("dead endpoint breaker = %v, want open", st)
	}
	if _, _, err := cl.Get(deadKey); err != ErrBreakerOpen {
		t.Fatalf("open breaker returned %v, want ErrBreakerOpen", err)
	}
	// The live endpoint is unaffected: breakers are per-backend.
	if st := cl.BreakerState(live); st != overload.BreakerClosed {
		t.Fatalf("live endpoint breaker = %v, want closed", st)
	}
	if _, found, err := cl.Get(liveKey); err != nil || !found {
		t.Fatalf("live get after dead-node storm: found=%v err=%v", found, err)
	}

	// The dial storm drew down the shared retry budget; exhaustion is
	// observable for the retry-budget metric.
	if cl.RetryBudgetExhausted() == 0 {
		t.Error("retry budget never reported exhaustion during the dial storm")
	}
}
