// Command benchmark is the repository's one benchmark: six workloads from
// the simulator to a router hop, every end-to-end metric by name with its
// unit, output checks, and a traced run that prices each layer.
//
//	go run -C benchmark . -seed 1                  all six workloads
//	go run -C benchmark . -workload lib-hot -trace 1
//	go run -C benchmark . -repeat 5 -out a.json
//	go run -C benchmark . -compare a.json b.json
//
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 10

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// savedRun is one run as -out stores it and -compare reads it.
type savedRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run one workload (default: all six)")
		seed    = fs.Int64("seed", 1, "seed of every generated input")
		seconds = fs.Float64("seconds", defaultSeconds, "scale of the fixed op counts: the timed phase takes about this long on the two-core reference runner")
		trace   = fs.Int("trace", 0, "1 = traced run: per-layer metrics, span file and self-time table instead of the end-to-end metrics")
		repeat  = fs.Int("repeat", 1, "run each workload this many times and print each metric's median and quartiles")
		out     = fs.String("out", "", "also write every run's result to this JSON file, for -compare")
		compare = fs.Bool("compare", false, "compare two -out files (given as arguments) under the bounds in BENCHMARK.json")
		corrupt = fs.Bool("corrupt", false, "corrupt the expected outputs after set-up, to show that a failed check fails the run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two files")
			return 2
		}
		return compareFiles(e.root, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		selected = []workloadDef{w}
	}
	if *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive, -repeat at least 1, -trace 0 or 1")
		return 2
	}

	// Children are reaped on every way out: normal return, failure, panic
	// (the deferred call) and SIGINT/SIGTERM (the handler).
	defer e.stopAll()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		if _, ok := <-sigc; ok {
			e.stopAll()
			os.Exit(130)
		}
	}()

	debug.SetGCPercent(subprocessGOGC)
	fmt.Fprintf(stdout, "benchmark: nproc %d  GOMAXPROCS %d  GOGC %d  %s  seed %d  seconds %g\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), subprocessGOGC, runtime.Version(), *seed, *seconds)

	code := 0
	var saved []savedRun
	for _, w := range selected {
		var runs []*result
		for i := 0; i < *repeat; i++ {
			p := &params{seed: *seed, seconds: *seconds, corrupt: *corrupt, env: e}
			var res *result
			if *trace == 1 {
				res, err = runTraced(w, p, stdout)
			} else {
				res, err = runEndToEnd(w, p, stdout)
			}
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			if !res.Correct {
				code = 1
			}
			runs = append(runs, res)
			saved = append(saved, savedRun{w.name, *seed, *trace == 1, *res})
			line, err := json.Marshal(res)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			fmt.Fprintf(stdout, "%s\n", line)
		}
		if *repeat > 1 {
			printSpread(stdout, w.name, runs)
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(saved, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}
