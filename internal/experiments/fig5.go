package experiments

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fig5Baselines are the five state-of-the-art algorithms of §4; each is
// paired with its QD-enhanced variant.
var fig5Baselines = []string{"arc", "lirs", "cacheus", "lecar", "lhd"}

// fig5Extras are additional FIFO-family algorithms reported alongside
// QD-LP-FIFO (extensions beyond the paper).
var fig5Extras = []string{"qd-lp-fifo", "s3-fifo", "sieve", "fifo-reinsertion", "lru"}

// Fig5Series is the distribution of miss-ratio reductions from FIFO for
// one policy within one (class, size) group — one curve in Figure 5.
type Fig5Series struct {
	Policy      string
	Class       trace.Class
	SizeFrac    float64
	Reductions  []float64 // one per trace: (mrFIFO − mrPolicy)/mrFIFO
	Percentiles []float64 // P10, P25, P50, P75, P90
}

// QDGain summarizes QD-X against X across every trace and size (the §4
// headline numbers: mean and max miss-ratio reduction).
type QDGain struct {
	Baseline string
	Mean     float64
	Max      float64
}

// Fig5Result carries the full study.
type Fig5Result struct {
	Series []Fig5Series
	Gains  []QDGain
	// MeanReduction[policy] = mean reduction from FIFO across all traces
	// and both sizes (used for the QD-LP-FIFO vs LIRS/LeCaR comparison).
	MeanReduction map[string]float64
}

var fig5Percentiles = []float64{10, 25, 50, 75, 90}

// Fig5 runs the Quick Demotion study: the five state-of-the-art baselines,
// their QD-enhanced variants, and QD-LP-FIFO (plus extensions), reporting
// miss-ratio reduction from FIFO exactly as the paper presents it.
func Fig5(cfg Config) (Fig5Result, error) {
	cfg.normalize()
	traces := cfg.generateAll()

	policies := []string{"fifo"}
	for _, b := range fig5Baselines {
		policies = append(policies, b, "qd-"+b)
	}
	policies = append(policies, fig5Extras...)

	type groupKey struct {
		class trace.Class
		frac  float64
	}
	reductions := map[groupKey]map[string][]float64{}
	// gains[baseline] collects (mrX − mrQDX)/mrX over all traces+sizes.
	gains := map[string][]float64{}
	all := map[string][]float64{}

	for _, frac := range []float64{workload.SmallCacheFrac, workload.LargeCacheFrac} {
		for _, fam := range workload.Families() {
			var jobs []sim.Job
			for _, t := range traces[fam.Name] {
				capacity := workload.CacheSize(t.unique, frac)
				for _, pol := range policies {
					jobs = append(jobs, sim.Job{Trace: t.tr, Policy: pol, Capacity: capacity})
				}
			}
			results, err := sim.RunSweep(jobs, cfg.Workers)
			if err != nil {
				return Fig5Result{}, err
			}
			byTrace := missRatioByPolicy(results)
			gk := groupKey{fam.Class, frac}
			if reductions[gk] == nil {
				reductions[gk] = map[string][]float64{}
			}
			for _, m := range byTrace {
				fifoMR := m["fifo"]
				if fifoMR <= 0 {
					continue
				}
				for _, pol := range policies {
					if pol == "fifo" {
						continue
					}
					red := (fifoMR - m[pol]) / fifoMR
					reductions[gk][pol] = append(reductions[gk][pol], red)
					all[pol] = append(all[pol], red)
				}
				for _, b := range fig5Baselines {
					if m[b] > 0 {
						gains[b] = append(gains[b], (m[b]-m["qd-"+b])/m[b])
					}
				}
			}
		}
	}

	res := Fig5Result{MeanReduction: map[string]float64{}}
	for gk, byPol := range reductions {
		for pol, reds := range byPol {
			res.Series = append(res.Series, Fig5Series{
				Policy: pol, Class: gk.class, SizeFrac: gk.frac,
				Reductions:  reds,
				Percentiles: stats.Percentiles(reds, fig5Percentiles...),
			})
		}
	}
	for _, b := range fig5Baselines {
		s := stats.Summarize(gains[b])
		res.Gains = append(res.Gains, QDGain{Baseline: b, Mean: s.Mean, Max: s.Max})
	}
	for pol, reds := range all {
		res.MeanReduction[pol] = stats.Summarize(reds).Mean
	}
	printFig5(cfg, res)
	return res, nil
}

func printFig5(cfg Config, res Fig5Result) {
	w := cfg.out()
	order := append([]string{}, fig5Baselines...)
	for _, b := range fig5Baselines {
		order = append(order, "qd-"+b)
	}
	order = append(order, fig5Extras...)

	for _, class := range []trace.Class{trace.Block, trace.Web} {
		for _, frac := range []float64{workload.SmallCacheFrac, workload.LargeCacheFrac} {
			fmt.Fprintf(w, "Fig 5: %s workloads, %s size — miss-ratio reduction from FIFO (percentiles)\n",
				class, sizeName(frac))
			tb := stats.NewTable("policy", "P10", "P25", "P50", "P75", "P90")
			for _, pol := range order {
				for _, s := range res.Series {
					if s.Policy == pol && s.Class == class && s.SizeFrac == frac {
						tb.AddRow(pol, s.Percentiles[0], s.Percentiles[1], s.Percentiles[2], s.Percentiles[3], s.Percentiles[4])
					}
				}
			}
			fmt.Fprintln(w, tb)
		}
	}

	fmt.Fprintln(w, "QD-X vs X: miss-ratio reduction across all traces and sizes (§4 headline)")
	tb := stats.NewTable("baseline", "mean", "max")
	for _, g := range res.Gains {
		tb.AddRow("qd-"+g.Baseline, fmt.Sprintf("%.1f%%", 100*g.Mean), fmt.Sprintf("%.1f%%", 100*g.Max))
	}
	fmt.Fprintln(w, tb)

	fmt.Fprintln(w, "Mean miss-ratio reduction from FIFO (all traces, both sizes)")
	tb2 := stats.NewTable("policy", "mean reduction")
	for _, pol := range order {
		if v, ok := res.MeanReduction[pol]; ok {
			tb2.AddRow(pol, fmt.Sprintf("%.1f%%", 100*v))
		}
	}
	fmt.Fprintln(w, tb2)
}
