// Package sim replays traces against eviction policies: single runs,
// resource-consumption profiles (Figure 3), and parallel parameter sweeps
// over trace × policy × cache-size grids (Figures 2 and 5).
package sim

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/trace"
)

// Result summarizes one policy run over one trace.
type Result struct {
	Trace    string
	Class    trace.Class
	Policy   string
	Capacity int
	Requests int64
	Hits     int64
}

// MissRatio returns misses/requests (1 for an empty run).
func (r Result) MissRatio() float64 {
	if r.Requests == 0 {
		return 1
	}
	return float64(r.Requests-r.Hits) / float64(r.Requests)
}

// String renders the result as a one-line report.
func (r Result) String() string {
	return fmt.Sprintf("%-14s %-16s cap=%-8d miss=%.4f (%d/%d)",
		r.Trace, r.Policy, r.Capacity, r.MissRatio(), r.Requests-r.Hits, r.Requests)
}

// needsFuture matches offline policies (belady.Policy) structurally, so sim
// does not depend on any concrete policy package.
type needsFuture interface{ NeedsFuture() bool }

// Prepare normalizes request times to indices and, when future is true,
// fills next-access annotations. It is idempotent; call it once per trace
// before sharing the trace across concurrent runs.
func Prepare(tr *trace.Trace, future bool) {
	if future {
		trace.Annotate(tr.Requests) // also normalizes Time
		return
	}
	for i := range tr.Requests {
		tr.Requests[i].Time = int64(i)
	}
}

// Run replays tr against p and returns the result. If p is an offline
// policy the trace is annotated first. Run mutates only Request.Time /
// Request.NextAccess (via Prepare) — use Prepare upfront when sharing a
// trace across goroutines.
func Run(p core.Policy, tr *trace.Trace) Result {
	if nf, ok := p.(needsFuture); ok && nf.NeedsFuture() {
		Prepare(tr, true)
	}
	return runPrepared(p, tr)
}

// runPrepared replays an already-prepared trace; RunSweep workers use it so
// shared traces are never mutated concurrently.
func runPrepared(p core.Policy, tr *trace.Trace) Result {
	res := Result{
		Trace:    tr.Name,
		Class:    tr.Class,
		Policy:   p.Name(),
		Capacity: p.Capacity(),
		Requests: int64(len(tr.Requests)),
	}
	for i := range tr.Requests {
		if p.Access(&tr.Requests[i]) {
			res.Hits++
		}
	}
	return res
}

// Job is one cell of a sweep grid: a policy run over a trace at a given
// capacity. The policy is constructed either by registry name (Policy) or
// by the custom constructor New (which takes precedence and receives
// Capacity); Label, when set, overrides the policy name in the result.
type Job struct {
	Trace    *trace.Trace
	Policy   string
	New      func(capacity int) core.Policy
	Label    string
	Capacity int
}

func (j Job) build() (core.Policy, error) {
	if j.New != nil {
		return j.New(j.Capacity), nil
	}
	return core.New(j.Policy, j.Capacity)
}

// RunSweep executes jobs across workers goroutines (0 = GOMAXPROCS) and
// returns results in job order. Every job's policy is built once, serially
// and up front: that validates the job, and tells which traces offline
// policies need annotated before any worker reads them, so shared traces are
// never mutated concurrently. The worker that runs a job takes its policy
// and drops it with the run.
func RunSweep(jobs []Job, workers int) ([]Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	policies := make([]core.Policy, len(jobs))
	prepared := map[*trace.Trace]bool{}
	annotated := map[*trace.Trace]bool{}
	for i, j := range jobs {
		p, err := j.build()
		if err != nil {
			return nil, err
		}
		policies[i] = p
		future := false
		if nf, ok := p.(needsFuture); ok && nf.NeedsFuture() {
			future = true
		}
		if (!prepared[j.Trace]) || (future && !annotated[j.Trace]) {
			Prepare(j.Trace, future)
			prepared[j.Trace] = true
			if future {
				annotated[j.Trace] = true
			}
		}
	}
	results := make([]Result, len(jobs))
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range ch {
				p := policies[idx]
				policies[idx] = nil
				results[idx] = runPrepared(p, jobs[idx].Trace)
				if label := jobs[idx].Label; label != "" {
					results[idx].Policy = label
				}
			}
		}()
	}
	for i := range jobs {
		ch <- i
	}
	close(ch)
	wg.Wait()
	return results, nil
}
