// Command experiments reproduces the paper's tables and figures.
//
// Usage:
//
//	experiments -exp all                    # everything, default scale
//	experiments -exp fig2 -seeds 10         # more traces per family
//	experiments -exp fig5 -objects 50000 -requests 1000000
//
// Experiments: table1, fig2, fig3 (includes table2), fig5, ablation, all.
// Tables go to stdout and are a pure function of the flags; how long each
// experiment took goes to stderr.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		exp      = flag.String("exp", "all", "experiment to run: table1|fig2|fig3|fig5|ablation|all")
		seeds    = flag.Int("seeds", 3, "traces per dataset family")
		objects  = flag.Int("objects", 10000, "catalog objects per trace")
		requests = flag.Int("requests", 200000, "requests per trace")
		workers  = flag.Int("workers", 0, "sweep workers (0 = GOMAXPROCS)")
	)
	flag.Parse()

	cfg := experiments.Config{
		Seeds:    *seeds,
		Objects:  *objects,
		Requests: *requests,
		Workers:  *workers,
		Out:      os.Stdout,
	}

	run := func(name string, f func() error) {
		start := time.Now()
		fmt.Printf("=== %s ===\n", name)
		if err := f(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Println()
		// Not to stdout: experiments_output.txt must regenerate byte for byte.
		fmt.Fprintf(os.Stderr, "(%s finished in %s)\n", name, time.Since(start).Round(time.Millisecond))
	}

	want := strings.Split(*exp, ",")
	has := func(name string) bool {
		for _, w := range want {
			if w == name || w == "all" {
				return true
			}
		}
		return false
	}
	matched := false
	if has("table1") {
		matched = true
		run("table1", func() error { experiments.Table1(cfg); return nil })
	}
	if has("fig2") {
		matched = true
		run("fig2", func() error { _, err := experiments.Fig2(cfg); return err })
	}
	if has("fig3") || has("table2") {
		matched = true
		run("fig3+table2", func() error { experiments.Fig3(cfg); return nil })
	}
	if has("fig5") {
		matched = true
		run("fig5", func() error { _, err := experiments.Fig5(cfg); return err })
	}
	if has("ablation") {
		matched = true
		run("ablation", func() error { _, err := experiments.Ablation(cfg); return err })
	}
	if !matched {
		log.Fatalf("unknown experiment %q (want table1|fig2|fig3|fig5|ablation|all)", *exp)
	}
}
