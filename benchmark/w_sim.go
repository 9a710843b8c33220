package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/mrc"
	_ "repro/internal/policy/all"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// sim-sweep is the paper's own product: miss ratios of six policies at the
// paper's two cache sizes over two trace families. Only workload, policy
// and sim run; concurrent, server and cluster do nothing.
//
// RunSweep gets one worker on one CPU, not nproc workers as the issue asked.
// Six interleaved pairs of runs on the reference runner: with two workers on
// its two virtual CPUs the time of a pass spread by 27 % (interquartile range
// over median; 57 % from fastest to slowest run), with one bound worker by
// 4 % (6 %). What the second worker buys is the per-layer sim.sweep_speedup,
// which has no bound.

const (
	simTraceRequests = 1 << 20
	simTraceObjects  = simTraceRequests / 16
)

var (
	simPolicies = []string{"fifo", "lru", "clock-2bit", "arc", "qd-arc", "qd-lp-fifo"}
	simFamilies = []workload.Family{workload.TwitterLike(), workload.MSRLike()}
	simFracs    = []float64{workload.SmallCacheFrac, workload.LargeCacheFrac}
)

// simCell is one RunSweep call: every policy over one trace at one size.
type simCell struct {
	tr   *trace.Trace
	size int
	jobs []sim.Job
}

type simInstance struct {
	p      *params
	cells  []simCell
	rounds int // RunSweep calls, cycling over the cells
}

// simTraces is one trace per family (see familyWindows for what the seed
// does to it).
func simTraces(seed int64) []*trace.Trace {
	var out []*trace.Trace
	for _, fam := range simFamilies {
		keys := familyWindows(fam, seed, simTraceObjects, simTraceRequests, 1)[0]
		tr := &trace.Trace{Name: fmt.Sprintf("%s-%d", fam.Name, seed), Class: fam.Class, Requests: make([]trace.Request, len(keys))}
		for j, k := range keys {
			tr.Requests[j] = trace.Request{Key: k, Size: 1, Time: int64(j)}
		}
		out = append(out, tr)
	}
	return out
}

func setupSim(p *params, ops int) (instance, error) {
	p.env.oneCPU()
	in := &simInstance{p: p}
	for _, tr := range simTraces(p.seed) {
		unique := tr.UniqueObjects()
		for _, frac := range simFracs {
			c := simCell{tr: tr, size: workload.CacheSize(unique, frac)}
			for _, pol := range simPolicies {
				c.jobs = append(c.jobs, sim.Job{Trace: tr, Policy: pol, Capacity: c.size})
			}
			in.cells = append(in.cells, c)
		}
	}
	// Whole passes over the cells, so that every run of a seed does the
	// same mix of work; at least two, so that the repeat check has pairs.
	perPass := len(in.cells) * len(simPolicies) * simTraceRequests
	in.rounds = len(in.cells) * max(ops/perPass, 2)
	return in, nil
}

func (in *simInstance) close() { in.p.env.release() }

func (in *simInstance) run(t *tracer) (*outcome, error) {
	sb := t.buf()
	// One slice, and one latency sample, per pass over the cells: the cells
	// differ in cost, a pass does not.
	o := &outcome{latWhat: fmt.Sprintf("time per simulated request of one pass of %d RunSweep calls", len(in.cells))}
	first := make([][]sim.Result, len(in.cells))
	var lat []float32
	repeatOK, repeats := true, 0
	o.marks = append(o.marks, mark{t: time.Now(), cpu: selfCPU()})
	for r := 0; r < in.rounds; r++ {
		ci := r % len(in.cells)
		sp := -1
		if sb != nil {
			sp = sb.begin("sim.RunSweep", -1, int64(r))
		}
		res, err := sim.RunSweep(in.cells[ci].jobs, 1)
		if sb != nil {
			sb.end(sp)
		}
		if err != nil {
			return nil, err
		}
		o.ops += int64(len(res) * simTraceRequests)
		if ci == len(in.cells)-1 {
			last := o.marks[len(o.marks)-1]
			m := mark{t: time.Now(), cpu: selfCPU(), ops: o.ops}
			lat = append(lat, float32(float64(m.t.Sub(last.t).Nanoseconds())/1e3/float64(m.ops-last.ops)))
			o.marks = append(o.marks, m)
		}
		if first[ci] == nil {
			first[ci] = res
			continue
		}
		repeats++
		for j := range res {
			if res[j] != first[ci][j] {
				repeatOK = false
			}
		}
	}
	o.rssKiB = selfPeakRSSKiB()
	o.lat = [][]float32{lat}

	byPolicy := func(res []sim.Result, pol string) sim.Result {
		for i, name := range simPolicies {
			if name == pol {
				return res[i]
			}
		}
		panic("unknown policy " + pol)
	}
	var reduction float64
	mattsonOK := true
	for ci, res := range first {
		c := in.cells[ci]
		q, l := byPolicy(res, "qd-lp-fifo"), byPolicy(res, "lru")
		o.gets += q.Requests
		o.hits += q.Hits
		reduction += (l.MissRatio() - q.MissRatio()) / l.MissRatio()
		// The simulated LRU against the independent Mattson stack path.
		size := c.size
		if in.p.corrupt {
			size++
		}
		if want := mrc.LRU(c.tr.Requests, []int{size}).Ratios[0]; math.Abs(l.MissRatio()-want) > 1e-12 {
			mattsonOK = false
			o.check("sim-lru-equals-mattson", false, "%s size %d: simulated %.6f, mrc.LRU %.6f", c.tr.Name, c.size, l.MissRatio(), want)
		}
	}
	if mattsonOK {
		o.check("sim-lru-equals-mattson", true, "%d (trace, size) cells agree", len(first))
	}
	o.check("sim-repeat-identical", repeatOK && repeats > 0, "%d repeated calls gave identical counts", repeats)
	o.note("miss_reduction_vs_lru", reduction/float64(len(first)), fmt.Sprintf("ratio (mean over %d trace x size cells)", len(first)))
	return o, nil
}

func simLayers(p *params) layerInput {
	ids := familyWindows(simFamilies[0], p.seed, simTraceObjects, ladderOps, 1)[0]
	unique := map[uint64]bool{}
	for _, id := range ids {
		unique[id] = true
	}
	return layerInput{ids: ids, size: fixedSize(64), maxEntries: workload.CacheSize(len(unique), workload.LargeCacheFrac)}
}
