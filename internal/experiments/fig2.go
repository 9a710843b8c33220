package experiments

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fig2Policies are the LP-FIFO contenders compared against LRU in §3.
var fig2Policies = []string{"fifo", "fifo-reinsertion", "clock-2bit", "clock-3bit"}

// Fig2Cell reports, for one dataset family at one cache size, the fraction
// of that family's traces on which each LP-FIFO variant has a strictly
// lower miss ratio than LRU (the quantity plotted in Fig. 2a–d).
type Fig2Cell struct {
	Family    string
	Class     trace.Class
	SizeFrac  float64
	WinFrac   map[string]float64 // policy → fraction of traces beating LRU
	MeanDelta map[string]float64 // policy → mean (mrLRU − mrPolicy)
}

// Fig2Result aggregates all cells plus the paper's headline counts.
type Fig2Result struct {
	Cells []Fig2Cell
	// DatasetsWon[size][policy] counts families where the policy beats LRU
	// on the majority of traces (the paper: FIFO-Reinsertion wins 9 and 7
	// of 10 datasets at small/large size).
	DatasetsWon map[string]map[string]int
}

// Fig2 runs the §3 study: LRU vs FIFO-Reinsertion (1-bit CLOCK) and 2-bit
// CLOCK across all families, at the paper's small (0.1%) and large (10%)
// cache sizes.
func Fig2(cfg Config) (Fig2Result, error) {
	cfg.normalize()
	traces := cfg.generateAll()
	out := Fig2Result{DatasetsWon: map[string]map[string]int{}}

	for _, frac := range []float64{workload.SmallCacheFrac, workload.LargeCacheFrac} {
		sz := sizeName(frac)
		out.DatasetsWon[sz] = map[string]int{}
		for _, fam := range workload.Families() {
			var jobs []sim.Job
			for _, tr := range traces[fam.Name] {
				capacity := workload.CacheSize(tr.UniqueObjects(), frac)
				jobs = append(jobs, sim.Job{Trace: tr, Policy: "lru", Capacity: capacity})
				for _, pol := range fig2Policies {
					jobs = append(jobs, sim.Job{Trace: tr, Policy: pol, Capacity: capacity})
				}
			}
			results, err := sim.RunSweep(jobs, cfg.Workers)
			if err != nil {
				return Fig2Result{}, err
			}
			byTrace := missRatioByPolicy(results)
			cell := Fig2Cell{
				Family: fam.Name, Class: fam.Class, SizeFrac: frac,
				WinFrac:   map[string]float64{},
				MeanDelta: map[string]float64{},
			}
			for _, pol := range fig2Policies {
				var deltas []float64
				for _, m := range byTrace {
					deltas = append(deltas, m["lru"]-m[pol])
				}
				cell.WinFrac[pol] = stats.FractionPositive(deltas)
				cell.MeanDelta[pol] = stats.Summarize(deltas).Mean
				if cell.WinFrac[pol] > 0.5 {
					out.DatasetsWon[sz][pol]++
				}
			}
			out.Cells = append(out.Cells, cell)
		}
	}
	printFig2(cfg, out)
	return out, nil
}

func printFig2(cfg Config, res Fig2Result) {
	w := cfg.out()
	for _, class := range []trace.Class{trace.Block, trace.Web} {
		for _, frac := range []float64{workload.SmallCacheFrac, workload.LargeCacheFrac} {
			fmt.Fprintf(w, "Fig 2: %s workloads, %s size (%.3g%% of objects) — fraction of traces beating LRU\n",
				class, sizeName(frac), frac*100)
			tb := stats.NewTable("family", "fifo", "fifo-reinsertion", "clock-2bit", "clock-3bit", "Δlru-1bit", "Δlru-2bit")
			for _, c := range res.Cells {
				if c.Class != class || c.SizeFrac != frac {
					continue
				}
				tb.AddRow(c.Family,
					fmt.Sprintf("%.0f%%", 100*c.WinFrac["fifo"]),
					fmt.Sprintf("%.0f%%", 100*c.WinFrac["fifo-reinsertion"]),
					fmt.Sprintf("%.0f%%", 100*c.WinFrac["clock-2bit"]),
					fmt.Sprintf("%.0f%%", 100*c.WinFrac["clock-3bit"]),
					fmt.Sprintf("%+.4f", c.MeanDelta["fifo-reinsertion"]),
					fmt.Sprintf("%+.4f", c.MeanDelta["clock-2bit"]))
			}
			fmt.Fprintln(w, tb)
		}
	}
	for _, sz := range []string{"small", "large"} { // not map order: the transcript is diffed
		won := res.DatasetsWon[sz]
		fmt.Fprintf(w, "datasets won (majority of traces, %s size): fifo-reinsertion %d/10, clock-2bit %d/10\n",
			sz, won["fifo-reinsertion"], won["clock-2bit"])
	}
	fmt.Fprintln(w)
}
