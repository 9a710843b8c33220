// Package repro is a faithful, laptop-scale reproduction of "FIFO can be
// Better than LRU: the Power of Lazy Promotion and Quick Demotion" (Yang,
// Qiu, Zhang, Yue, Rashmi — HotOS 2023), built as a reusable Go library.
//
// The repository contains:
//
//   - fourteen eviction policies (FIFO, LRU, CLOCK/FIFO-Reinsertion and
//     k-bit variants, SIEVE, S3-FIFO, ARC, LIRS, LFU, LeCaR, CACHEUS, LHD,
//     Belady's MIN, the paper's QD wrapper and QD-LP-FIFO), all under
//     internal/policy;
//   - synthetic workload families standing in for the paper's ten
//     production trace collections (internal/workload);
//   - a deterministic simulator with sweeps and a resource-consumption
//     profiler (internal/sim);
//   - thread-safe sharded caches exercising the paper's throughput
//     argument (internal/concurrent);
//   - an experiment harness regenerating every table and figure
//     (internal/experiments, cmd/experiments, bench_test.go).
//
// This package is the public facade: it re-exports the types and
// constructors a downstream user needs without reaching into internal
// packages. Quick start:
//
//	tr := repro.Generate("twitter", 1, 20000, 400000)
//	cache := repro.NewQDLPFIFO(repro.CacheSize(tr.UniqueObjects(), repro.LargeCacheFrac))
//	res := repro.Run(cache, tr)
//	fmt.Println(res.MissRatio())
//
// See README.md for the architecture overview, DESIGN.md for the system
// inventory, and EXPERIMENTS.md for paper-vs-measured results.
package repro
