package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Spans are recorded from the benchmark's side of each call it makes into
// the repository (spans inside the program are a later issue). They stay in
// memory until the run ends.

// traceEvery is the sampling period: one op in 64 is recorded.
const traceEvery = 64

type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Op     int64  `json:"op"`     // spans of one op share it
}

// tracer owns one span buffer per recording goroutine, so recording takes
// no lock.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	bufs  []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

type spanBuf struct {
	epoch time.Time
	spans []span
}

// buf returns a new buffer for one goroutine; nil when tracing is off, and
// callers test for nil before sampling an op.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{epoch: t.epoch}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// begin opens a span and returns its index in this buffer.
func (b *spanBuf) begin(name string, parent int, op int64) int {
	b.spans = append(b.spans, span{Name: name, Start: int64(time.Since(b.epoch)), Parent: parent, Op: op})
	return len(b.spans) - 1
}

func (b *spanBuf) end(i int) { b.spans[i].End = int64(time.Since(b.epoch)) }

// all returns every span with buffer-local indices made global.
func (t *tracer) all() []span {
	var out []span
	for _, b := range t.bufs {
		base := len(out)
		for i, s := range b.spans {
			s.ID = base + i
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type selfTime struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes attributes each span's duration to its name, less the part its
// direct children cover.
func selfTimes(spans []span) []selfTime {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*selfTime{}
	for i, s := range spans {
		st := by[s.Name]
		if st == nil {
			st = &selfTime{name: s.Name}
			by[s.Name] = st
		}
		d := s.End - s.Start
		st.count++
		st.total += time.Duration(d)
		st.self += time.Duration(d - child[i])
	}
	out := make([]selfTime, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func printSelfTimes(w io.Writer, spans []span) {
	fmt.Fprintf(w, "  %-28s %10s %14s %14s\n", "span", "count", "mean_ns", "self_mean_ns")
	for _, st := range selfTimes(spans) {
		fmt.Fprintf(w, "  %-28s %10d %14.0f %14.0f\n", st.name, st.count,
			float64(st.total)/float64(st.count), float64(st.self)/float64(st.count))
	}
}
