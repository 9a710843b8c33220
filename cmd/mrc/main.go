// Command mrc prints miss-ratio curves: exact single-pass LRU (Mattson
// stack distances) and simulated curves for any registered policy, which
// -sample turns into SHARDS-sampled miniature simulations.
//
// Usage:
//
//	mrc -family msr -policies lru,qd-lp-fifo,arc -points 10
//	mrc -trace msr.trc -policies lru,qd-lp-fifo -sample 0.05
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/mrc"
	_ "repro/internal/policy/all"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mrc: ")
	var (
		traceFile = flag.String("trace", "", "trace file (binary, or CSV by .csv extension)")
		family    = flag.String("family", "twitter", "synthetic family when no -trace is given")
		seed      = flag.Int64("seed", 1, "generator seed")
		objects   = flag.Int("objects", 20000, "catalog objects for synthetic traces")
		requests  = flag.Int("requests", 400000, "requests for synthetic traces")
		policies  = flag.String("policies", "lru,fifo,qd-lp-fifo", "comma-separated policies ('lru' uses the exact stack algorithm unless sampled)")
		points    = flag.Int("points", 10, "number of log-spaced cache sizes")
		sample    = flag.Float64("sample", 1.0, "SHARDS sampling rate in (0, 1]: each curve simulates miniatures over the sampled keys (1 = every key)")
	)
	flag.Parse()

	tr, err := load(*traceFile, *family, *seed, *objects, *requests)
	if err != nil {
		log.Fatal(err)
	}
	unique := tr.UniqueObjects()
	sizes := mrc.LogSizes(workload.CacheSize(unique, workload.SmallCacheFrac), unique/4, *points)
	fmt.Printf("trace %s: %d requests, %d unique objects\n", tr.Name, tr.Len(), unique)

	var curves []mrc.Curve
	for _, pol := range strings.Split(*policies, ",") {
		pol = strings.TrimSpace(pol)
		if pol == "lru" && *sample == 1 {
			curves = append(curves, mrc.LRU(tr.Requests, append([]int(nil), sizes...)))
			continue
		}
		c, err := mrc.Policy(tr, pol, append([]int(nil), sizes...), *sample, 0)
		if err != nil {
			log.Fatal(err)
		}
		curves = append(curves, c)
	}

	header := []string{"size"}
	for _, c := range curves {
		header = append(header, c.Policy)
	}
	tb := stats.NewTable(header...)
	for i, s := range sizes {
		row := []any{s}
		for _, c := range curves {
			row = append(row, fmt.Sprintf("%.4f", c.Ratios[i]))
		}
		tb.AddRow(row...)
	}
	fmt.Print(tb)
}

func load(file, family string, seed int64, objects, requests int) (*trace.Trace, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if strings.HasSuffix(file, ".csv") {
			return trace.ReadCSV(f)
		}
		return trace.ReadBinary(f)
	}
	fam, ok := workload.FamilyByName(family)
	if !ok {
		return nil, fmt.Errorf("unknown family %q", family)
	}
	return fam.Generate(seed, objects, requests), nil
}
