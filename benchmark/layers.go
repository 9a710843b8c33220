package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/concurrent"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The traced run replays a workload's own generated inputs through the
// cumulative stack, one layer at a time: policy, concurrent cache, KV,
// server over an in-memory listener, server over loopback TCP, router.
// Each layer is timed from this package, around calls to public functions,
// in batches of at least ladderBatch ops, hit streams and miss streams
// apart. The per-layer numbers have no bound; they say where an end-to-end
// number comes from.

const (
	ladderOps   = 1 << 17 // ops of the workload's stream that the ladder replays
	ladderBatch = 4096
	ladderRTs   = 1 << 15 // depth-1 round trips per served layer
	missEntries = 4096    // capacity of the caches the miss streams run against
	// tracedShare is the share of -seconds the workload itself runs for in
	// a traced run, once untraced and once traced.
	tracedShare = 0.2
)

// layerInput is what a workload hands the ladder: its key stream, its value
// sizes and its capacity mode.
type layerInput struct {
	ids        []uint64
	size       func(id uint64) int
	maxEntries int   // entry-capped workloads
	maxBytes   int64 // byte-capped workloads
	ttl        bool
}

func fixedSize(n int) func(uint64) int { return func(uint64) int { return n } }

var perLayerUnits = map[string]string{}

func init() {
	u := func(unit string, names ...string) {
		for _, n := range names {
			perLayerUnits[n] = unit
		}
	}
	u("ns", "workload.gen_ns_per_req", "sim.run_ns_per_req", "concurrent.digest_ns",
		"concurrent.lru.hit_ns_par", "concurrent.qdlp.hit_ns_par",
		"concurrent.kv.get_ns", "concurrent.kv.appendhit_ns", "concurrent.kv.set_ns", "concurrent.kv.getmulti_ns_per_key",
		"ttlwheel.advance_ns_per_expired",
		"server.parse_get_ns", "server.parse_set_ns", "server.pipe_get_ns", "server.pipe_get_ns_d32",
		"server.tcp_get_ns", "server.tcp_get_ns_d32", "server.conn_self_ns", "server.net_self_ns",
		"cluster.ring_lookup_ns")
	for _, p := range simPolicies {
		u("ns", "policy."+p+".hit_ns", "policy."+p+".miss_ns")
	}
	for _, p := range concurrentPolicies {
		for _, mode := range []string{"entries", "bytes"} {
			u("ns", "concurrent."+p+"."+mode+".hit_ns", "concurrent."+p+"."+mode+".miss_ns")
		}
	}
	u("us", "client.get_p999_us", "cluster.router_hop_us")
	u("s", "build.cacheserver_s")
	u("count", "concurrent.kv.allocs_per_get", "concurrent.kv.allocs_per_set", "server.allocs_per_get",
		"server.shed_total", "server.conns_slow_closed", "cluster.hot_promotions", "cluster.forward_errors")
	u("ratio", "sim.sweep_speedup", "concurrent.kv.evictions_per_set", "concurrent.kv.expired_per_set",
		"concurrent.kv.used_bytes_share", "server.flushes_per_op", "server.requests_per_batch",
		"server.cross_core_share", "cluster.replica_reads_share", "trace.overhead_share")
}

var concurrentPolicies = []string{"lru", "clock", "sieve", "qdlp"}

// perOp calls fn(0..calls-1) in timed batches and returns the median batch's
// nanoseconds per op, where one call is opsPerCall ops. The median keeps one
// descheduled batch out of the number.
func perOp(calls, opsPerCall int, fn func(i int)) float64 {
	batch := max(ladderBatch/opsPerCall, 1)
	var per []float64
	for b := 0; b+batch <= calls; b += batch {
		t0 := time.Now()
		for i := b; i < b+batch; i++ {
			fn(i)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(batch*opsPerCall))
	}
	return median(per)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

type ladder struct {
	in      layerInput
	m       map[string]float64
	keys    [][]byte // wire key of ids[i]
	digests []uint64 // concurrent.Digest(keys[i])
	unique  []int    // index in ids of each key's first appearance
	fresh   [][]byte // keys that appear nowhere in ids: the miss stream
	freshD  []uint64
}

func newLadder(in layerInput) *ladder {
	l := &ladder{in: in, m: map[string]float64{}}
	slab := make([]byte, 0, 16*len(in.ids))
	seen := make(map[uint64]bool, len(in.ids)/2)
	for i, id := range in.ids {
		slab = append(slab, idKey(nil, id)...)
		k := slab[len(slab)-16 : len(slab) : len(slab)]
		l.keys = append(l.keys, k)
		l.digests = append(l.digests, concurrent.Digest(k))
		if !seen[id] {
			seen[id] = true
			l.unique = append(l.unique, i)
		}
	}
	// Fresh keys: hashes of a counter, which meet neither the small ranks
	// nor the generator's 62-bit hashed ids in practice.
	fslab := make([]byte, 0, 16*len(in.ids))
	for i := range in.ids {
		fslab = append(fslab, idKey(nil, mix64(uint64(i))|1<<63|1<<61)...)
		k := fslab[len(fslab)-16 : len(fslab) : len(fslab)]
		l.fresh = append(l.fresh, k)
		l.freshD = append(l.freshD, concurrent.Digest(k))
	}
	return l
}

func (l *ladder) cost(i int) uint64 {
	return uint64(concurrent.EntryCost(16, l.in.size(l.in.ids[i])))
}

// ---- workload, policy, sim ----

func (l *ladder) workloadLayer(seed int64) {
	const n = 1 << 17
	t0 := time.Now()
	workload.TwitterLike().Generate(seed, n/16, n)
	l.m["workload.gen_ns_per_req"] = float64(time.Since(t0).Nanoseconds()) / n
}

func (l *ladder) requests(keys func(i int) uint64) []trace.Request {
	reqs := make([]trace.Request, len(l.in.ids))
	for i := range reqs {
		reqs[i] = trace.Request{Key: keys(i), Size: 1, Time: int64(i)}
	}
	return reqs
}

func retime(reqs []trace.Request, base int) {
	for i := range reqs {
		reqs[i].Time = int64(base + i)
	}
}

func (l *ladder) policyLayer() error {
	hits := l.requests(func(i int) uint64 { return l.in.ids[i] })
	misses := l.requests(func(i int) uint64 { return mix64(uint64(i)) | 1<<63 | 1<<61 })
	n := len(hits)
	for _, name := range simPolicies {
		// Hit stream: capacity for every key, two warm passes, then the
		// workload's own reference pattern finds everything resident.
		p, err := core.New(name, 2*len(l.unique))
		if err != nil {
			return err
		}
		for pass := 0; pass < 2; pass++ {
			retime(hits, pass*n)
			for i := range hits {
				p.Access(&hits[i])
			}
		}
		retime(hits, 2*n)
		l.m["policy."+name+".hit_ns"] = perOp(n, 1, func(i int) { p.Access(&hits[i]) })
		// Miss stream: never-seen keys into a small full cache, so every
		// access inserts and evicts.
		if p, err = core.New(name, missEntries); err != nil {
			return err
		}
		warm := 2 * missEntries
		for i := 0; i < warm; i++ {
			p.Access(&misses[i])
		}
		rest := misses[warm:]
		l.m["policy."+name+".miss_ns"] = perOp(len(rest), 1, func(i int) { p.Access(&rest[i]) })
	}
	return nil
}

func (l *ladder) simCapacity() int {
	if l.in.maxEntries > 0 && l.in.maxEntries < len(l.unique) {
		return l.in.maxEntries
	}
	return workload.CacheSize(len(l.unique), workload.LargeCacheFrac)
}

func (l *ladder) simLayer() error {
	tr := &trace.Trace{Name: "ladder", Requests: l.requests(func(i int) uint64 { return l.in.ids[i] })}
	p, err := core.New("qd-lp-fifo", l.simCapacity())
	if err != nil {
		return err
	}
	t0 := time.Now()
	sim.Run(p, tr)
	l.m["sim.run_ns_per_req"] = float64(time.Since(t0).Nanoseconds()) / float64(len(tr.Requests))
	var jobs []sim.Job
	for _, frac := range simFracs {
		for _, pol := range simPolicies {
			jobs = append(jobs, sim.Job{Trace: tr, Policy: pol, Capacity: workload.CacheSize(len(l.unique), frac)})
		}
	}
	var took [2]time.Duration
	for i, workers := range []int{1, runtime.NumCPU()} {
		t0 := time.Now()
		if _, err := sim.RunSweep(jobs, workers); err != nil {
			return err
		}
		took[i] = time.Since(t0)
	}
	l.m["sim.sweep_speedup"] = took[0].Seconds() / took[1].Seconds()
	return nil
}

// ---- concurrent.Cache on digests ----

func (l *ladder) newCache(policy, mode string, entries int) (concurrent.Cache, error) {
	opt := concurrent.WithMaxEntries(entries)
	if mode == "bytes" {
		var total uint64
		for _, i := range l.unique {
			total += l.cost(i)
		}
		opt = concurrent.WithMaxBytes(int64(total) / int64(len(l.unique)) * int64(entries))
	}
	return concurrent.New(policy, 0, opt, concurrent.WithShards(16))
}

// warmCache makes every key of the stream resident: a set and a get per key
// (see keyed.warm for why the get).
func (l *ladder) warmCache(c concurrent.Cache) {
	for _, i := range l.unique {
		c.Set(l.digests[i], l.cost(i))
		c.Get(l.digests[i])
	}
}

func (l *ladder) concurrentLayer() error {
	n := len(l.digests)
	hitEntries := max(2*len(l.unique), 64)
	for _, pol := range concurrentPolicies {
		for _, mode := range []string{"entries", "bytes"} {
			c, err := l.newCache(pol, mode, hitEntries)
			if err != nil {
				return err
			}
			l.warmCache(c)
			prefix := "concurrent." + pol + "." + mode
			l.m[prefix+".hit_ns"] = perOp(n, 1, func(i int) { c.Get(l.digests[i]) })
			if mode == "entries" && (pol == "lru" || pol == "qdlp") {
				l.m["concurrent."+pol+".hit_ns_par"] = l.parallelHits(c)
			}
			if c, err = l.newCache(pol, mode, missEntries); err != nil {
				return err
			}
			warm := 2 * missEntries
			op := func(i int) {
				if _, ok := c.Get(l.freshD[i]); !ok {
					c.Set(l.freshD[i], l.cost(i))
				}
			}
			for i := 0; i < warm; i++ {
				op(i)
			}
			l.m[prefix+".miss_ns"] = perOp(n-warm, 1, func(i int) { op(warm + i) })
		}
	}
	l.m["concurrent.digest_ns"] = perOp(n, 1, func(i int) { concurrent.Digest(l.keys[i]) })
	return nil
}

// parallelHits replays the hit stream from nproc goroutines at once, each
// from its own offset, and returns the median per-goroutine ns per op: equal
// to hit_ns when goroutines do not get in each other's way.
func (l *ladder) parallelHits(c concurrent.Cache) float64 {
	g := runtime.NumCPU()
	n := len(l.digests)
	per := make([]float64, g)
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			off := w * n / g
			per[w] = perOp(n, 1, func(i int) { c.Get(l.digests[(off+i)%n]) })
		}(w)
	}
	wg.Wait()
	return median(per)
}

// ---- concurrent.KV ----

func (l *ladder) newKV(hitSized bool) (*concurrent.KV, error) {
	var opt concurrent.Option
	switch {
	case hitSized:
		var total int64
		for _, i := range l.unique {
			total += int64(l.cost(i))
		}
		if l.in.maxBytes > 0 {
			opt = concurrent.WithMaxBytes(2 * total)
		} else {
			opt = concurrent.WithMaxEntries(max(2*len(l.unique), 64))
		}
	case l.in.maxBytes > 0:
		opt = concurrent.WithMaxBytes(l.in.maxBytes)
	default:
		opt = concurrent.WithMaxEntries(l.in.maxEntries)
	}
	c, err := concurrent.New("qdlp", 0, opt, concurrent.WithShards(16))
	if err != nil {
		return nil, err
	}
	return concurrent.NewKV(c, 16), nil
}

func (l *ladder) value(pay *payloads, i int) []byte {
	return pay.value(l.in.ids[i], l.in.size(l.in.ids[i]))
}

func appendHeader(dst, key []byte, n int, _ uint32, _ uint64) []byte {
	dst = append(dst, "VALUE "...)
	dst = append(dst, key...)
	return append(dst, " 0 0\r\n"...)
}

// kvLayer replays the stream through a KV with the workload's own capacity
// (evictions, expiries, occupancy), then times single calls against a KV
// that holds every key. It returns the second, which the server layers
// serve.
func (l *ladder) kvLayer(pay *payloads) (*concurrent.KV, error) {
	kv, err := l.newKV(false)
	if err != nil {
		return nil, err
	}
	now := time.Now().Unix() + 1
	kv.AdvanceTTL(now)
	var sets, expired int64
	var advance time.Duration
	var buf []byte
	for i := range l.keys {
		if _, _, _, ok := kv.Get(buf[:0], l.keys[i]); !ok {
			var exp int64
			if h := mix64(l.in.ids[i] ^ 0x7474); l.in.ttl && h%10 == 0 {
				exp = now + 1 + int64(h>>32%3)
			}
			kv.SetDigest(l.keys[i], l.value(pay, i), 0, l.digests[i], exp)
			sets++
		}
		if l.in.ttl && i%(ladderOps/16) == 0 {
			now++
			t0 := time.Now()
			expired += int64(kv.AdvanceTTL(now))
			advance += time.Since(t0)
		}
	}
	st := kv.Stats()
	if sets > 0 {
		l.m["concurrent.kv.evictions_per_set"] = float64(st.Evictions) / float64(sets)
		l.m["concurrent.kv.expired_per_set"] = float64(st.Expired) / float64(sets)
	}
	if st.MaxBytes > 0 {
		l.m["concurrent.kv.used_bytes_share"] = float64(st.UsedBytes) / float64(st.MaxBytes)
	} else if st.Capacity > 0 {
		l.m["concurrent.kv.used_bytes_share"] = float64(st.Len) / float64(st.Capacity)
	}
	if expired > 0 {
		l.m["ttlwheel.advance_ns_per_expired"] = float64(advance.Nanoseconds()) / float64(expired)
	}
	// Sets of never-seen keys into the workload-sized store: the insert,
	// evict-until-fit and buffer-pool path.
	n := len(l.fresh)
	fv := func(i int) []byte { return pay.value(uint64(i), l.in.size(l.in.ids[i])) }
	m0 := mallocs()
	l.m["concurrent.kv.set_ns"] = perOp(n, 1, func(i int) { kv.SetDigest(l.fresh[i], fv(i), 0, l.freshD[i], 0) })
	l.m["concurrent.kv.allocs_per_set"] = float64(mallocs()-m0) / float64(n)

	hot, err := l.newKV(true)
	if err != nil {
		return nil, err
	}
	for _, i := range l.unique {
		hot.SetDigest(l.keys[i], l.value(pay, i), 0, l.digests[i], 0)
		hot.Get(buf[:0], l.keys[i])
	}
	n = len(l.keys)
	buf = make([]byte, 0, 64<<10)
	m0 = mallocs()
	l.m["concurrent.kv.get_ns"] = perOp(n, 1, func(i int) { hot.Get(buf[:0], l.keys[i]) })
	l.m["concurrent.kv.allocs_per_get"] = float64(mallocs()-m0) / float64(n)
	l.m["concurrent.kv.appendhit_ns"] = perOp(n, 1, func(i int) { hot.AppendHit(buf[:0], l.keys[i], l.digests[i], appendHeader) })
	const multi = 32
	out := make([]concurrent.MultiHit, multi)
	big := make([]byte, 0, multi*maxValue)
	l.m["concurrent.kv.getmulti_ns_per_key"] = perOp(n/multi, multi, func(i int) {
		hot.GetMulti(big[:0], l.keys[i*multi:(i+1)*multi], l.digests[i*multi:(i+1)*multi], out)
	})
	return hot, nil
}

// ---- server ----

func (l *ladder) parseLayer(pay *payloads) error {
	var gets, sets bytes.Buffer
	for _, k := range l.keys {
		gets.WriteString("get ")
		gets.Write(k)
		gets.WriteString("\r\n")
	}
	nSets := len(l.keys) / 8 // set bodies are large; an eighth of the stream is enough
	for i := 0; i < nSets; i++ {
		v := l.value(pay, i)
		fmt.Fprintf(&sets, "set %s 0 0 %d\r\n", l.keys[i], len(v))
		sets.Write(v)
		sets.WriteString("\r\n")
	}
	var req server.Request
	var perr error
	parse := func(br *bufio.Reader) func(int) {
		return func(int) {
			if err := server.ParseRequest(br, &req, 0); err != nil {
				perr = err
			}
		}
	}
	l.m["server.parse_get_ns"] = perOp(len(l.keys), 1, parse(bufio.NewReaderSize(&gets, 64<<10)))
	l.m["server.parse_set_ns"] = perOp(nSets, 1, parse(bufio.NewReaderSize(&sets, 64<<10)))
	return perr
}

// served is an in-process server.Server on one listener.
type served struct {
	srv  *server.Server
	done chan error
}

func serve(store server.Store, ln net.Listener) (*served, error) {
	srv, err := server.New(server.Config{Store: store, Listeners: 1})
	if err != nil {
		return nil, err
	}
	s := &served{srv: srv, done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ln) }()
	return s, nil
}

func (s *served) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return err
	}
	return <-s.done
}

// getLoop times depth-1 gets and windows of 32 over one connection; every
// get must hit. It returns ns per get at both depths and, when lat is not
// nil, appends each depth-1 round trip in µs.
func (l *ladder) getLoop(c *wireConn, lat *[]float32) (d1, d32 float64, err error) {
	var vbuf []byte
	fail := func(i int, hit bool, e error) {
		if e == nil && !hit {
			e = fmt.Errorf("key %s missed in the hit stream", l.keys[i])
		}
		if e != nil && err == nil {
			err = e
		}
	}
	d1 = perOp(ladderRTs, 1, func(i int) {
		t0 := time.Now()
		c.writeGet(l.keys[i])
		if e := c.flush(); e != nil {
			fail(i, true, e)
			return
		}
		v, hit, e := readGetReply(c.br, l.keys[i], vbuf)
		vbuf = v
		fail(i, hit, e)
		if lat != nil {
			*lat = append(*lat, float32(float64(time.Since(t0).Nanoseconds())/1e3))
		}
	})
	if err != nil {
		return 0, 0, err
	}
	const w = pipelineWindow
	d32 = perOp(len(l.keys)/w, w, func(i int) {
		for j := i * w; j < (i+1)*w; j++ {
			c.writeGet(l.keys[j])
		}
		if e := c.flush(); e != nil {
			fail(i, true, e)
			return
		}
		for j := i * w; j < (i+1)*w; j++ {
			v, hit, e := readGetReply(c.br, l.keys[j], vbuf)
			vbuf = v
			fail(j, hit, e)
		}
	})
	return d1, d32, err
}

func (l *ladder) serverLayer(hot *concurrent.KV) error {
	ml := newMemListener()
	ms, err := serve(hot, ml)
	if err != nil {
		return err
	}
	nc, err := ml.dial()
	if err != nil {
		return err
	}
	m0 := mallocs()
	d1, d32, err := l.getLoop(newWire(nc), nil)
	allocs := mallocs() - m0
	nc.Close()
	if serr := ms.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("in-memory server: %w", err)
	}
	l.m["server.pipe_get_ns"], l.m["server.pipe_get_ns_d32"] = d1, d32
	l.m["server.allocs_per_get"] = float64(allocs) / float64(ladderRTs+len(l.keys))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ts, err := serve(hot, ln)
	if err != nil {
		return err
	}
	c, err := dialWire(ln.Addr().String())
	if err != nil {
		return err
	}
	var lat []float32
	t1, t32, err := l.getLoop(c, &lat)
	var st map[string]string
	if err == nil {
		st, err = c.stats()
	}
	c.close()
	if serr := ts.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("loopback server: %w", err)
	}
	l.m["server.tcp_get_ns"], l.m["server.tcp_get_ns_d32"] = t1, t32
	l.m["server.conn_self_ns"] = d1 - l.m["server.parse_get_ns"] - l.m["concurrent.kv.appendhit_ns"]
	l.m["server.net_self_ns"] = t1 - d1
	sorted := make([]float64, len(lat))
	for i, x := range lat {
		sorted[i] = float64(x)
	}
	sort.Float64s(sorted)
	l.m["client.get_p999_us"] = percentile(sorted, 0.999)
	gets := float64(statInt(st, "cmd_get"))
	l.m["server.flushes_per_op"] = float64(statInt(st, "flushes")) / gets
	if b := statInt(st, "batches"); b > 0 {
		l.m["server.requests_per_batch"] = float64(statInt(st, "batched_requests")) / float64(b)
	}
	if total := statInt(st, "local_ops") + statInt(st, "cross_core_ops"); total > 0 {
		l.m["server.cross_core_share"] = float64(statInt(st, "cross_core_ops")) / float64(total)
	}
	l.m["server.shed_total"] = float64(statInt(st, "shed_total"))
	l.m["server.conns_slow_closed"] = float64(statInt(st, "conns_slow_closed"))
	return nil
}

// ---- cluster ----

func (l *ladder) clusterLayer(pay *payloads) error {
	ring, err := cluster.NewRing(0, 0, "a:1", "b:1")
	if err != nil {
		return err
	}
	l.m["cluster.ring_lookup_ns"] = perOp(len(l.digests), 1, func(i int) { ring.Lookup(l.digests[i]) })

	// Two backends with the workload's own capacity behind a router, all
	// in process on loopback; the client does get-with-set-on-miss at depth
	// 1, one warm pass and one timed.
	var stops []func() error
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	var addrs []string
	for i := 0; i < 2; i++ {
		kv, err := l.newKV(false)
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		s, err := serve(kv, ln)
		if err != nil {
			return err
		}
		stops = append(stops, s.stop)
		addrs = append(addrs, ln.Addr().String())
	}
	router, err := cluster.NewRouter(cluster.RouterConfig{Nodes: addrs, Replicas: 2, HotThreshold: 8})
	if err != nil {
		return err
	}
	defer router.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	rs, err := serve(router, ln)
	if err != nil {
		return err
	}
	stops = append(stops, rs.stop)
	c, err := dialWire(ln.Addr().String())
	if err != nil {
		return err
	}
	defer c.close()
	var vbuf []byte
	var lat []float64
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < ladderRTs; i++ {
			t0 := time.Now()
			c.writeGet(l.keys[i])
			if err := c.flush(); err != nil {
				return err
			}
			v, hit, err := readGetReply(c.br, l.keys[i], vbuf)
			vbuf = v
			if err != nil {
				return fmt.Errorf("routed get: %w", err)
			}
			if pass == 1 {
				lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
			}
			if hit {
				continue
			}
			c.writeSet(l.keys[i], l.value(pay, i))
			if err := c.flush(); err != nil {
				return err
			}
			if err := readStored(c.br); err != nil {
				return fmt.Errorf("routed set: %w", err)
			}
		}
	}
	sort.Float64s(lat)
	l.m["cluster.router_hop_us"] = percentile(lat, 0.5) - l.m["server.tcp_get_ns"]/1e3
	nodes, _, promotions, _, _, _ := router.Snapshot()
	var routed, replica, fwdErrs int64
	for _, n := range nodes {
		routed += n.RoutedGet
		replica += n.ReplicaReads
		fwdErrs += n.ForwardErrors
	}
	l.m["cluster.hot_promotions"] = float64(promotions)
	l.m["cluster.forward_errors"] = float64(fwdErrs)
	if routed > 0 {
		l.m["cluster.replica_reads_share"] = float64(replica) / float64(routed)
	}
	return nil
}

// run measures every layer and returns the per-layer metrics that come from
// the ladder (all but trace.overhead_share and build.cacheserver_s).
func (l *ladder) run(seed int64) error {
	pay := newPayloads(seed)
	l.workloadLayer(seed)
	if err := l.policyLayer(); err != nil {
		return err
	}
	if err := l.simLayer(); err != nil {
		return err
	}
	if err := l.concurrentLayer(); err != nil {
		return err
	}
	hot, err := l.kvLayer(pay)
	if err != nil {
		return err
	}
	if err := l.parseLayer(pay); err != nil {
		return err
	}
	if err := l.serverLayer(hot); err != nil {
		return err
	}
	return l.clusterLayer(pay)
}

// printBudget is the table that says where the gap between a cache hit and
// a served get goes: each row adds one layer to the one above.
func (l *ladder) printBudget(out io.Writer) {
	rows := []struct{ what, metric string }{
		{"policy hit: shard, lock, atomics (concurrent qdlp)", "concurrent.qdlp.entries.hit_ns"},
		{"+ digest, data map, value copy (KV.AppendHit)", "concurrent.kv.appendhit_ns"},
		{"+ parse, dispatch, flush, wake-ups (in-memory conn)", "server.pipe_get_ns"},
		{"+ syscalls, netpoll, loopback (TCP, depth 1)", "server.tcp_get_ns"},
	}
	fmt.Fprintf(out, "  %-52s %12s %12s\n", "layer ladder (one get that hits)", "total_ns", "added_ns")
	prev := 0.0
	for _, r := range rows {
		v := l.m[r.metric]
		fmt.Fprintf(out, "  %-52s %12.0f %12.0f\n", r.what, v, v-prev)
		prev = v
	}
	hop := l.m["cluster.router_hop_us"] * 1e3
	fmt.Fprintf(out, "  %-52s %12.0f %12.0f\n", "+ router hop (ring, sketch, forward client)", prev+hop, hop)
	fmt.Fprintf(out, "  %-52s %12.0f\n", "pipelined, depth 32, per get (TCP)", l.m["server.tcp_get_ns_d32"])
	fmt.Fprintf(out, "  %-52s %12.0f\n", "simulator's policy hit (qd-lp-fifo, one thread)", l.m["policy.qd-lp-fifo.hit_ns"])
}

// runTraced is the traced run of one workload: the workload itself for a
// share of its length, untraced and then traced, to price the tracing; the
// span file and self-time table; then the layer ladder.
func runTraced(w workloadDef, p *params, out io.Writer) (*result, error) {
	ops := int(float64(p.ops(w.rate)) * tracedShare)
	var outcomes [2]*outcome
	tr := newTracer()
	for i, t := range []*tracer{nil, tr} {
		inst, _, err := timedSetup(w, p, ops, 1)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		o, err := inst.run(t)
		inst.close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		outcomes[i] = o
	}
	rate := (*outcome).opsPerSecond
	plain, traced := outcomes[0], outcomes[1]

	l := newLadder(w.layers(p))
	if err := l.run(p.seed); err != nil {
		return nil, fmt.Errorf("%s: layer ladder: %w", w.name, err)
	}
	if _, err := p.env.serverBinary(); err != nil {
		return nil, err
	}
	l.m["build.cacheserver_s"] = p.env.buildS
	l.m["trace.overhead_share"] = 1 - rate(traced)/rate(plain)

	res := &result{Attempted: plain.ops + traced.ops, Failed: plain.failed + traced.failed, Metrics: map[string]metric{}}
	for name, unit := range perLayerUnits {
		res.Metrics[name] = metric{l.m[name], unit}
	}
	spans := tr.all()
	path := filepath.Join(p.env.work, "spans-"+w.name+".jsonl")
	if err := tr.writeFile(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "workload %s  seed %d  traced run: %d ops untraced at %.0f/s, %d ops traced at %.0f/s\n",
		w.name, p.seed, plain.ops, rate(plain), traced.ops, rate(traced))
	printMetrics(out, res.Metrics)
	fmt.Fprintf(out, "  %d spans (1 op in %d) written to %s\n", len(spans), traceEvery, path)
	printSelfTimes(out, spans)
	l.printBudget(out)
	fmt.Fprintf(out, "  client.get_p999_us is over %d depth-1 round trips\n", ladderRTs)
	res.Correct = reportChecks(out, plain)
	res.Correct = reportChecks(out, traced) && res.Correct
	return res, nil
}
