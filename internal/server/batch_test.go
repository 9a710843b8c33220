package server

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/concurrent"
)

// TestMultiBufEquivalence drives multiBuf with a random interleaving of its
// write surface — AvailableBuffer append-in-place, plain Writes, strings,
// bytes, arena references, explicit flushes — and checks the delivered
// stream is byte-for-byte what a plain buffer would have produced.
func TestMultiBufEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	arena := make([]byte, 8192)
	for i := range arena {
		arena[i] = byte('A' + i%26)
	}
	var got, want bytes.Buffer
	var flushes atomic.Int64
	mb := newMultiBuf(&got, &flushes)
	for i := 0; i < 20000; i++ {
		switch rng.Intn(5) {
		case 0: // the AvailableBuffer contract dispatch relies on
			b := mb.AvailableBuffer()
			n := rng.Intn(300)
			for j := 0; j < n; j++ {
				b = append(b, byte('a'+(i+j)%26))
			}
			mb.Write(b)
			want.Write(b)
		case 1:
			s := strings.Repeat("x", rng.Intn(200))
			mb.WriteString(s)
			want.WriteString(s)
		case 2:
			mb.WriteByte(byte('0' + i%10))
			want.WriteByte(byte('0' + i%10))
		case 3: // zero-copy value reference, spanning many chunk boundaries
			v := arena[rng.Intn(len(arena)/2) : len(arena)/2+rng.Intn(len(arena)/2)]
			mb.writeRef(v)
			want.Write(v)
		case 4:
			if err := mb.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := mb.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("multiBuf stream diverged: got %d bytes, want %d", got.Len(), want.Len())
	}
	if flushes.Load() == 0 {
		t.Fatal("flush counter never moved")
	}
	if mb.Buffered() != 0 {
		t.Fatalf("Buffered()=%d after flush", mb.Buffered())
	}
}

// TestServerNoopVersion pipelines noop and version between gets: both must
// answer in order without disturbing the batched get runs around them.
func TestServerNoopVersion(t *testing.T) {
	_, addr := startServer(t, nil)
	rc := dialRaw(t, addr)
	rc.send("set k 0 0 2\r\nhi\r\n")
	rc.expect("STORED")
	rc.send("get k\r\nnoop\r\nversion\r\nget k\r\nnoop\r\n")
	rc.expect("VALUE k 0 2")
	rc.expect("hi")
	rc.expect("END")
	rc.expect("NOOP")
	rc.expect("VERSION " + Version)
	rc.expect("VALUE k 0 2")
	rc.expect("hi")
	rc.expect("END")
	rc.expect("NOOP")
}

// orderingScript builds a deterministic pipelined workload that hits every
// batching barrier: consecutive get runs (merged), sets and deletes between
// them (barriers), multi-key gets, values straddling the iovec-reference
// threshold, protocol errors mid-burst, and noop delimiters. Right after
// the first sets a multi-key get follows a run of pipelined gets and
// precedes a set; split is an offset in the middle of one of its keys,
// where the client breaks its write in two. The line reaches the server
// incomplete, and the refill that completes it brings the rest of the
// script over the buffer bytes the pending gets' keys point into. The
// script ends with a noop so the reader knows when the response stream is
// complete.
func orderingScript() (script []byte, split int) {
	var b bytes.Buffer
	rng := rand.New(rand.NewSource(99))
	val := func(n int) string {
		s := make([]byte, n)
		for i := range s {
			s[i] = byte('a' + rng.Intn(26))
		}
		return string(s)
	}
	keys := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
	sizes := []int{3, 64, 127, 128, 129, 700, 2048}
	for i, k := range keys {
		v := val(sizes[i%len(sizes)])
		b.WriteString("set " + k + " 0 0 " + itoa(len(v)) + "\r\n" + v + "\r\n")
	}
	b.WriteString("get alpha\r\ngets bravo charlie\r\nget delta\r\n")
	multi := "gets " + strings.Join(keys, " ") + " nope\r\n"
	split = b.Len() + strings.Index(multi, "echo") + 2
	b.WriteString(multi)
	b.WriteString("set echo 7 0 3\r\nnew\r\nget echo alpha\r\n")
	for round := 0; round < 30; round++ {
		// A run of consecutive gets — the merged-dispatch fodder.
		for j := 0; j < 8; j++ {
			k := keys[rng.Intn(len(keys))]
			switch rng.Intn(3) {
			case 0:
				b.WriteString("get " + k + "\r\n")
			case 1:
				b.WriteString("gets " + k + " missing-" + itoa(j) + "\r\n")
			case 2:
				b.WriteString("get " + k + " " + keys[rng.Intn(len(keys))] + " nope\r\n")
			}
		}
		// Barriers: mutations, errors, and delimiters between runs.
		switch round % 5 {
		case 0:
			v := val(sizes[rng.Intn(len(sizes))])
			b.WriteString("set " + keys[rng.Intn(len(keys))] + " 1 0 " + itoa(len(v)) + "\r\n" + v + "\r\n")
		case 1:
			b.WriteString("noop\r\n")
		case 2:
			b.WriteString("bogus cmd\r\n")
		case 3:
			// A complete get line that fails validation: its CLIENT_ERROR
			// must land after the merged run before it.
			b.WriteString("get " + strings.Repeat("x", 300) + "\r\n")
		case 4:
			b.WriteString("delete " + keys[rng.Intn(len(keys))] + "\r\nversion\r\n")
		}
	}
	b.WriteString("noop\r\n")
	return b.Bytes(), split
}

func itoa(n int) string { return strconv.Itoa(n) }

// TestBatchedOrderingUnderChaos is the batching correctness capstone: a
// pipelined workload, fragmented and delayed by the chaos proxy, must
// produce byte for byte the response stream of the sequential protocol
// model. Batching may only change how responses are delivered, never what
// or in what order.
func TestBatchedOrderingUnderChaos(t *testing.T) {
	script, split := orderingScript()
	srv, addr := startServer(t, func(c *Config) { c.WriteTimeout = 10 * time.Second })
	proxy, err := chaos.NewProxy("", addr, chaos.Config{
		Seed:        13,
		PartialProb: 1, // fragment every write, both directions
		LatencyProb: 0.2,
		Latency:     200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	c, err := net.Dial("tcp", proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go func() {
		// The pause lets the server read the first part alone, so the line
		// cut at split arrives incomplete behind a run of pending gets.
		c.Write(script[:split])
		time.Sleep(20 * time.Millisecond)
		c.Write(script[split:])
	}()
	c.SetReadDeadline(time.Now().Add(30 * time.Second))
	var resp bytes.Buffer
	buf := make([]byte, 4096)
	for !bytes.HasSuffix(resp.Bytes(), []byte("NOOP\r\n")) {
		n, err := c.Read(buf)
		resp.Write(buf[:n])
		if err != nil {
			t.Fatalf("read after %d bytes: %v", resp.Len(), err)
		}
	}
	firstDiff(t, resp.Bytes(), newProtoModel().run(t, script))
	if srv.Counters().Batches.Load() == 0 {
		t.Fatal("server never merged a dispatch (batching not engaged)")
	}
	if srv.Counters().Flushes.Load() == 0 {
		t.Fatal("flush counter never moved")
	}
}

// splitReader yields its payload in two reads, the first ending at split,
// so the line straddling split reaches the parser incomplete.
type splitReader struct {
	payload    []byte
	split, off int
}

func (r *splitReader) Read(p []byte) (int, error) {
	if r.off == len(r.payload) {
		return 0, io.EOF
	}
	end := len(r.payload)
	if r.off < r.split {
		end = r.split
	}
	n := copy(p, r.payload[r.off:end])
	r.off += n
	return n, nil
}

// TestServerBatchedPipelineZeroAllocs is the batched twin of the
// single-dispatch alloc guards: a pipelined burst of gets accumulated,
// merged, assembled, and flushed must not allocate in steady state — the
// batching layer may not give back what the zero-copy hit path won. The
// burst runs through serveRequest exactly as the connection loop drives it
// and includes both ways a get reaches the batch without the accumulator:
// the 65th request finds the batch full, and a 16-key get arrives split
// mid-key across two reads. Its response stream must equal the model's.
func TestServerBatchedPipelineZeroAllocs(t *testing.T) {
	inner, err := concurrent.New("qdlp", 1024, concurrent.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: concurrent.NewKV(inner, 4)})
	if err != nil {
		t.Fatal(err)
	}
	small := strings.Repeat("s", 40)   // copied into the chunk
	large := strings.Repeat("L", 1024) // queued as an iovec reference
	var setup strings.Builder
	for _, kv := range [][2]string{{"k1", small}, {"k2", large}, {"k3", small}} {
		setup.WriteString("set " + kv[0] + " 0 0 " + itoa(len(kv[1])) + "\r\n" + kv[1] + "\r\n")
	}
	multi := "get"
	for i := 0; i < 16; i++ {
		k := "m" + itoa(i)
		setup.WriteString("set " + k + " " + itoa(i) + " 0 2\r\nv" + itoa(i%10) + "\r\n")
		multi += " " + k
	}
	multi += "\r\n"
	burst := strings.Repeat("get k1\r\nget k2 k3\r\ngets k3\r\n", 24) // 72 requests
	payload := []byte(burst + multi + burst)
	split := len(burst) + strings.Index(multi, "m7") + 1

	var got bytes.Buffer
	mb := newMultiBuf(&got, &s.counters.Flushes)
	bt := newConnBatch()
	tr := s.newConnTracer()
	src := &splitReader{}
	br := bufio.NewReaderSize(src, readBufSize)
	serve := func(script []byte, split int) {
		*src = splitReader{payload: script, split: split}
		br.Reset(src)
		got.Reset()
		for {
			if br.Buffered() == 0 {
				s.dispatchPending(mb, bt, &tr)
				if _, err := br.Peek(1); err != nil {
					break
				}
			}
			if !s.serveRequest(br, mb, bt, &tr) {
				t.Fatal("connection closed")
			}
		}
		if err := mb.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	serve([]byte(setup.String()), 0)
	m := newProtoModel()
	m.run(t, []byte(setup.String()))
	serve(payload, split) // warm pools and scratch buffers
	firstDiff(t, got.Bytes(), m.run(t, payload))
	if allocs := testing.AllocsPerRun(50, func() { serve(payload, split) }); allocs != 0 {
		t.Fatalf("batched pipelined get path allocates %.1f times per burst, want 0", allocs)
	}
	if s.counters.Batches.Load() == 0 || s.counters.BatchedReqs.Load() == 0 {
		t.Fatal("merged dispatch counters never moved")
	}
	if n := s.cfg.Store.Stats().Misses; n != 0 {
		t.Fatalf("unexpected misses: %d", n)
	}
}

// TestServerMultiListener serves through ListenAndServe with two
// SO_REUSEPORT listeners: both accept loops run, traffic lands, and
// shutdown drains every accept loop.
func TestServerMultiListener(t *testing.T) {
	inner, err := concurrent.New("qdlp", 4096, concurrent.WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Addr:        "127.0.0.1:0",
		Store:       concurrent.NewKV(inner, 8),
		Listeners:   2,
		IdleTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	for srv.Addr() == nil {
		time.Sleep(time.Millisecond)
	}
	addr := srv.Addr().String()

	if n := srv.numListeners(); n != 2 {
		t.Fatalf("serving on %d listeners, want 2", n)
	}
	for i := 0; i < 3; i++ {
		rc := dialRaw(t, addr)
		for j := 0; j < 16; j++ {
			k := "key-" + itoa(i*100+j)
			rc.send("set " + k + " 0 0 2\r\nvv\r\n")
			rc.expect("STORED")
			rc.send("get " + k + "\r\n")
			rc.expect("VALUE " + k + " 0 2")
			rc.expect("vv")
			rc.expect("END")
		}
	}
	if hits := srv.cfg.Store.Stats().Hits; hits != 48 {
		t.Fatalf("%d get hits, want 48", hits)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("serve: %v", err)
	}
}
