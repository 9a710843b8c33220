package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/policy/qdlp"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// AblationRow is one configuration's mean miss ratio over the ablation
// trace set.
type AblationRow struct {
	Study    string
	Variant  string
	SizeFrac float64
	MeanMiss float64
}

// Ablation reproduces the §5 design-choice claims:
//
//   - probation size: the paper's tiny fixed 10% FIFO vs the 25%/50% used
//     by prior multi-queue designs;
//   - ghost size: none vs half vs the paper's main-cache-sized ghost;
//   - CLOCK bits: 1 vs 2 (the paper's choice) vs 3;
//   - very large caches: QD can hurt when the cache holds most of the
//     working set (the paper's 80%-of-objects caveat).
func Ablation(cfg Config) ([]AblationRow, error) {
	cfg.normalize()
	// Ablations use the two web families where QD matters most plus one
	// block family for contrast.
	fams := []workload.Family{workload.MajorCDNLike(), workload.TwitterLike(), workload.MSRLike()}
	var traces []*traceWithCap
	for _, fam := range fams {
		for s := 0; s < cfg.Seeds; s++ {
			traces = append(traces, newTraceWithCap(fam.Generate(int64(s+1), cfg.Objects, cfg.Requests)))
		}
	}

	var rows []AblationRow
	addStudy := func(study, variant string, frac float64, mk func(capacity int) core.Policy) error {
		var jobs []sim.Job
		for _, t := range traces {
			jobs = append(jobs, sim.Job{
				Trace:    t.tr,
				New:      mk,
				Label:    variant,
				Capacity: workload.CacheSize(t.unique, frac),
			})
		}
		results, err := sim.RunSweep(jobs, cfg.Workers)
		if err != nil {
			return err
		}
		var mrs []float64
		for _, r := range results {
			mrs = append(mrs, r.MissRatio())
		}
		rows = append(rows, AblationRow{
			Study: study, Variant: variant, SizeFrac: frac,
			MeanMiss: stats.Summarize(mrs).Mean,
		})
		return nil
	}

	// Study 1: probation fraction (at the large size, where QD matters).
	for _, pf := range []float64{0.05, 0.10, 0.25, 0.50} {
		pf := pf
		err := addStudy("probation-frac", fmt.Sprintf("qd-lp-fifo/prob=%.0f%%", pf*100),
			workload.LargeCacheFrac, func(capacity int) core.Policy {
				return qdlp.NewWithOptions(capacity, qdlp.Options{ProbationFrac: pf})
			})
		if err != nil {
			return nil, err
		}
	}

	// Study 2: ghost factor.
	for _, gf := range []float64{-1, 0.5, 1.0, 2.0} { // -1 encodes "no ghost"
		gf := gf
		label := fmt.Sprintf("qd-lp-fifo/ghost=%.1fx", gf)
		real := gf
		if gf < 0 {
			label = "qd-lp-fifo/ghost=off"
			real = 0.000001 // effectively no ghost entries
		}
		err := addStudy("ghost-factor", label, workload.LargeCacheFrac, func(capacity int) core.Policy {
			return qdlp.NewWithOptions(capacity, qdlp.Options{GhostFactor: real})
		})
		if err != nil {
			return nil, err
		}
	}

	// Study 3: CLOCK bits for the LP main cache.
	for _, bits := range []int{1, 2, 3} {
		bits := bits
		err := addStudy("clock-bits", fmt.Sprintf("qd-lp-fifo/%d-bit", bits),
			workload.LargeCacheFrac, func(capacity int) core.Policy {
				return qdlp.NewWithOptions(capacity, qdlp.Options{ClockBits: bits})
			})
		if err != nil {
			return nil, err
		}
	}

	// Study 4: very large cache (80% of objects): QD vs its baseline.
	for _, name := range []string{"arc", "qd-arc", "clock-2bit", "qd-lp-fifo"} {
		name := name
		err := addStudy("huge-cache-80%", name, 0.80, func(capacity int) core.Policy {
			return core.MustNew(name, capacity)
		})
		if err != nil {
			return nil, err
		}
	}

	// Study 5: §5's adaptivity observations — replacing ARC's LRU queues
	// with FIFO-Reinsertion (CAR) and damping/limiting ARC's adaptation.
	for _, name := range []string{"arc", "car", "arc-damped"} {
		name := name
		err := addStudy("arc-variants", name, workload.LargeCacheFrac, func(capacity int) core.Policy {
			return core.MustNew(name, capacity)
		})
		if err != nil {
			return nil, err
		}
	}

	tb := stats.NewTable("study", "variant", "size", "mean miss ratio")
	for _, r := range rows {
		tb.AddRow(r.Study, r.Variant, sizeName(r.SizeFrac), r.MeanMiss)
	}
	fmt.Fprintf(cfg.out(), "Ablations (§5 design choices)\n%s\n", tb)
	return rows, nil
}
