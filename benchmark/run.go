package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// params is what one run of one workload is given.
type params struct {
	seed    int64
	seconds float64 // scales the fixed op counts; see workloadDef.rate
	corrupt bool
	env     *env
}

// ops is a workload's op count: fixed by rate and -seconds, never by a
// timer, so that hit ratios and eviction counts repeat exactly for a seed.
func (p *params) ops(rate float64) int {
	n := int(rate * p.seconds)
	if n < 4096 {
		n = 4096
	}
	return n
}

type check struct {
	name   string
	ok     bool
	detail string
}

type note struct {
	name  string
	value float64
	unit  string
}

// outcome is what a workload's timed phase produced.
type outcome struct {
	ops, gets, hits int64
	failed          int64       // errored, refused or value-mismatched ops
	marks           []mark      // slice boundaries, first to last
	rssKiB          int64       // peak RSS of the program under test
	lat             [][]float32 // per client, µs per sample, in arrival order
	latWhat         string
	notes           []note
	checks          []check
}

func (o *outcome) elapsed() time.Duration {
	return o.marks[len(o.marks)-1].t.Sub(o.marks[0].t)
}

// opsPerSecond is the rate of the low-decile slice (see lowDecile).
func (o *outcome) opsPerSecond() float64 {
	wall, _ := sliceCosts(o.marks)
	return 1e6 / lowDecile(wall)
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

func (o *outcome) note(name string, v float64, unit string) {
	o.notes = append(o.notes, note{name, v, unit})
}

// instance is one set-up copy of a workload: inputs generated, servers up,
// cache warm. run is the timed phase and its output checks.
type instance interface {
	run(t *tracer) (*outcome, error)
	close()
}

type workloadDef struct {
	name string
	// rate is ops per second of -seconds, calibrated so the timed phase
	// takes about -seconds on the two-core reference runner.
	rate  float64
	setup func(p *params, ops int) (instance, error)
	// layers describes the inputs the traced run replays through the
	// layer ladder.
	layers func(p *params) layerInput
}

var workloads = []workloadDef{
	{name: "sim-sweep", rate: 10.2e6, setup: setupSim, layers: simLayers},
	{name: "lib-hot", rate: 7e6, setup: setupLibHot, layers: libHotLayers},
	{name: "lib-churn", rate: 1.05e6, setup: setupLibChurn, layers: libChurnLayers},
	{name: "served-get", rate: 45e3, setup: setupServedGet, layers: libHotLayers},
	{name: "served-pipeline", rate: 260e3, setup: setupServedPipeline, layers: pipelineLayers},
	{name: "routed-get", rate: 15.5e3, setup: setupRoutedGet, layers: libHotLayers},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload; its JSON form is the last line the
// run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits names the end-to-end metrics and their units; it must
// agree with BENCHMARK.json (a test checks that).
var endToEndUnits = map[string]string{
	"setup_s":       "s",
	"ops_per_s":     "1/s",
	"cpu_us_per_op": "us",
	"get_p50_us":    "us",
	"get_p99_us":    "us",
	"hit_ratio":     "ratio",
	"peak_rss_mib":  "MiB",
}

// setupRepeats is how many times an untraced run sets the workload up;
// setup_s is the median, and the last copy is the one measured.
const setupRepeats = 5

// timedSetup sets a workload up n times and keeps the last instance.
func timedSetup(w workloadDef, p *params, ops, n int) (instance, float64, error) {
	var inst instance
	var times []float64
	for i := 0; i < n; i++ {
		if inst != nil {
			// Collect the discarded copy now, so that peak RSS does not
			// depend on when the collector would have got to it.
			inst.close()
			inst = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		inst, err = w.setup(p, ops)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return inst, median(times), nil
}

// runEndToEnd is the untraced run: every end-to-end metric of one workload.
func runEndToEnd(w workloadDef, p *params, out io.Writer) (*result, error) {
	inst, setupS, err := timedSetup(w, p, p.ops(w.rate), setupRepeats)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	runtime.GC()
	o, err := inst.run(nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res := &result{
		Attempted: o.ops,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	set := func(name string, v float64) { res.Metrics[name] = metric{v, endToEndUnits[name]} }
	set("setup_s", setupS)
	slices := len(o.marks) - 1
	_, cpu := sliceCosts(o.marks)
	set("ops_per_s", o.opsPerSecond())
	set("cpu_us_per_op", lowDecile(cpu))
	set("get_p50_us", slicePercentile(o.lat, slices, 0.50))
	set("get_p99_us", slicePercentile(o.lat, slices, 0.99))
	set("hit_ratio", float64(o.hits)/float64(o.gets))
	set("peak_rss_mib", float64(o.rssKiB)/1024)

	fmt.Fprintf(out, "workload %s  seed %d  ops %d  timed phase %.3f s  (%.0f ops/s over the whole phase)\n",
		w.name, p.seed, o.ops, o.elapsed().Seconds(), float64(o.ops)/o.elapsed().Seconds())
	printMetrics(out, res.Metrics)
	fmt.Fprintf(out, "  %-28s %14d  samples (%s); every timing is the low decile of %d slices\n",
		"get_p50_us/get_p99_us", totalSamples(o.lat), o.latWhat, slices)
	fmt.Fprintf(out, "  %-28s %14.6g  ratio (%d of %d ops)\n", "failed_share", float64(o.failed)/float64(o.ops), o.failed, o.ops)
	for _, n := range o.notes {
		fmt.Fprintf(out, "  %-28s %14.6g  %s\n", n.name, n.value, n.unit)
	}
	res.Correct = reportChecks(out, o)
	return res, nil
}

func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-28s %14.6g  %s\n", n, m[n].Value, m[n].Unit)
	}
}

// reportChecks prints every output check and reports whether all passed and
// no op failed.
func reportChecks(out io.Writer, o *outcome) bool {
	ok := o.failed == 0
	for _, c := range o.checks {
		verdict := "ok"
		if !c.ok {
			verdict, ok = "FAILED", false
		}
		fmt.Fprintf(out, "  check %-34s %-6s %s\n", c.name, verdict, c.detail)
	}
	if o.failed != 0 {
		fmt.Fprintf(out, "  check %-34s %-6s %d ops failed or returned a wrong value\n", "no-failed-ops", "FAILED", o.failed)
	}
	return ok
}
