// Package experiments reproduces every table and figure from the paper's
// evaluation:
//
//	Table 1 — dataset inventory (synthetic families standing in for the
//	          production trace collections)
//	Fig 2   — fraction of traces where FIFO-Reinsertion / 2-bit CLOCK beat
//	          LRU, block vs web × small vs large cache
//	Fig 3   — cache resource consumption by object popularity for
//	          LRU/ARC/LHD/Belady
//	Table 2 — miss ratios of LRU/ARC/LHD/Belady on the MSR-like and
//	          Twitter-like traces
//	Fig 5   — percentiles of miss-ratio reduction from FIFO for the five
//	          state-of-the-art algorithms, their QD-enhanced variants, and
//	          QD-LP-FIFO
//	Ablation— §5 design-choice studies (probation size, ghost size, CLOCK
//	          bits, very large caches)
//
// Each experiment returns structured results and renders the same rows and
// series the paper reports. cmd/experiments is the CLI front end;
// bench_test.go regenerates each artifact as a benchmark.
package experiments

import (
	"fmt"
	"io"

	_ "repro/internal/policy/all" // register every policy
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config scales the experiments. The paper uses 5307 traces and 814 billion
// requests; the defaults here reproduce the shapes on a laptop in minutes.
type Config struct {
	// Seeds is the number of trace instances generated per dataset family.
	Seeds int
	// Objects is the per-trace catalog size, Requests the per-trace length.
	Objects  int
	Requests int
	// Workers bounds sweep parallelism (0 = GOMAXPROCS).
	Workers int
	// Out receives the rendered tables (nil = io.Discard).
	Out io.Writer
}

// DefaultConfig returns the standard laptop-scale configuration.
func DefaultConfig() Config {
	return Config{Seeds: 3, Objects: 10000, Requests: 200000}
}

// QuickConfig returns a minimal configuration for tests and smoke runs.
func QuickConfig() Config {
	return Config{Seeds: 2, Objects: 2000, Requests: 40000}
}

func (c Config) out() io.Writer {
	if c.Out == nil {
		return io.Discard
	}
	return c.Out
}

func (c *Config) normalize() {
	if c.Seeds <= 0 {
		c.Seeds = 3
	}
	if c.Objects <= 0 {
		c.Objects = 10000
	}
	if c.Requests <= 0 {
		c.Requests = 200000
	}
}

// traceWithCap is a generated trace with its unique-object count, which
// sizes every cache run on it; counted once per trace.
type traceWithCap struct {
	tr     *trace.Trace
	unique int
}

func newTraceWithCap(tr *trace.Trace) *traceWithCap {
	return &traceWithCap{tr: tr, unique: tr.UniqueObjects()}
}

// generateAll produces Seeds traces for every family.
func (c Config) generateAll() map[string][]*traceWithCap {
	out := make(map[string][]*traceWithCap)
	for _, fam := range workload.Families() {
		for s := 0; s < c.Seeds; s++ {
			out[fam.Name] = append(out[fam.Name], newTraceWithCap(fam.Generate(int64(s+1), c.Objects, c.Requests)))
		}
	}
	return out
}

// sizeName returns the paper's label for a cache-size fraction.
func sizeName(frac float64) string {
	if frac == workload.SmallCacheFrac {
		return "small"
	}
	if frac == workload.LargeCacheFrac {
		return "large"
	}
	return fmt.Sprintf("%g", frac)
}

// missRatioByPolicy indexes sweep results: trace name → policy → miss ratio.
func missRatioByPolicy(results []sim.Result) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for _, r := range results {
		m, ok := out[r.Trace]
		if !ok {
			m = map[string]float64{}
			out[r.Trace] = m
		}
		m[r.Policy] = r.MissRatio()
	}
	return out
}
