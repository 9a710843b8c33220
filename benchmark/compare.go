package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// spread is the interquartile range as a share of the median, the measure
// the acceptance rule for this benchmark uses.
func spread(v []float64) (med, share float64) {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0, 0
	}
	return q2, (q3 - q1) / q2
}

func values(runs []*result, name string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

func metricNames(runs []*result) []string {
	seen := map[string]bool{}
	for _, r := range runs {
		for n := range r.Metrics {
			seen[n] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printSpread is the -repeat summary: median and quartiles of each metric.
func printSpread(out io.Writer, workload string, runs []*result) {
	fmt.Fprintf(out, "workload %s over %d runs\n", workload, len(runs))
	fmt.Fprintf(out, "  %-34s %14s %14s %14s %8s\n", "metric", "q1", "median", "q3", "iqr/med")
	for _, n := range metricNames(runs) {
		v := values(runs, n)
		q1, q2, q3 := quartiles(v)
		_, share := spread(v)
		fmt.Fprintf(out, "  %-34s %14.6g %14.6g %14.6g %7.2f%%\n", n, q1, q2, q3, 100*share)
	}
}

func loadRuns(path string) (map[string][]*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var saved []savedRun
	if err := json.Unmarshal(b, &saved); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	by := map[string][]*result{}
	for i := range saved {
		if !saved[i].Trace {
			by[saved[i].Workload] = append(by[saved[i].Workload], &saved[i].result)
		}
	}
	return by, nil
}

// verdict applies one metric's bound to two sets of runs. A difference can
// only be called when the runs of each side agree with themselves to within
// the bound; otherwise the pairing is unresolved, which is not "unchanged".
func verdict(spec metricSpec, a, b []float64) (string, float64, float64) {
	ma, sa := spread(a)
	mb, sb := spread(b)
	if ma == 0 {
		return "unresolved", 0, max(sa, sb)
	}
	worse := (mb - ma) / ma
	if spec.Better == "higher" {
		worse = -worse
	}
	noise := max(sa, sb)
	switch {
	case len(a) > 1 && len(b) > 1 && noise > spec.Bound:
		return "unresolved", worse, noise
	case worse > spec.Bound:
		return "REGRESSED", worse, noise
	case worse < -noise && worse < 0:
		return "better", worse, noise
	default:
		return "within bound", worse, noise
	}
}

// compareFiles prints, for every workload and end-to-end metric, whether
// file b is worse than file a by more than the metric's bound.
func compareFiles(root, a, b string, stdout, stderr io.Writer) int {
	spec, err := loadSpec(root)
	var ra, rb map[string][]*result
	if err == nil {
		ra, err = loadRuns(a)
	}
	if err == nil {
		rb, err = loadRuns(b)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	code := 0
	fmt.Fprintf(stdout, "%-16s %-14s %12s %12s %9s %8s %7s  %s\n", "workload", "metric", "a median", "b median", "worse by", "spread", "bound", "verdict")
	for _, w := range spec.Workloads {
		if len(ra[w.Name]) == 0 || len(rb[w.Name]) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := values(ra[w.Name], m.Name), values(rb[w.Name], m.Name)
			v, worse, noise := verdict(m, va, vb)
			if v == "REGRESSED" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-16s %-14s %12.6g %12.6g %+8.2f%% %7.2f%% %6.1f%%  %s\n",
				w.Name, m.Name, median(va), median(vb), 100*worse, 100*noise, 100*m.Bound, v)
		}
	}
	return code
}
