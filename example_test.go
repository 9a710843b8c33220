package repro_test

import (
	"fmt"

	"repro"
)

// ExampleRun demonstrates the core workflow: generate a synthetic trace,
// build the paper's QD-LP-FIFO cache at the large (10%) size, and measure
// its miss ratio against LRU.
func ExampleRun() {
	tr := repro.Generate("wikicdn", 1, 5000, 100000)
	capacity := repro.CacheSize(tr.UniqueObjects(), repro.LargeCacheFrac)

	qdlp := repro.Run(repro.NewQDLPFIFO(capacity), tr)
	lru, err := repro.NewPolicy("lru", capacity)
	if err != nil {
		panic(err)
	}
	lruRes := repro.Run(lru, repro.Generate("wikicdn", 1, 5000, 100000))

	fmt.Printf("qd-lp-fifo beats lru: %v\n", qdlp.MissRatio() < lruRes.MissRatio())
	// Output: qd-lp-fifo beats lru: true
}

// ExampleNewPolicy shows constructing any registered policy by name.
func ExampleNewPolicy() {
	p, err := repro.NewPolicy("arc", 1000)
	if err != nil {
		panic(err)
	}
	fmt.Println(p.Name(), p.Capacity())
	// Output: arc 1000
}

// ExampleNewConcurrent shows the thread-safe QD-LP-FIFO cache with the
// lock-free-on-hit read path.
func ExampleNewConcurrent() {
	cache, err := repro.NewConcurrent("qdlp", 1024, repro.WithConcurrentShards(4))
	if err != nil {
		panic(err)
	}
	cache.Set(42, 99)
	if v, ok := cache.Get(42); ok {
		fmt.Println(v)
	}
	// Output: 99
}

// ExampleNewQDLPFIFOWithOptions shows tuning the paper's parameters (used
// by the §5 ablations): a 25% probationary queue with a 1-bit CLOCK main.
func ExampleNewQDLPFIFOWithOptions() {
	p := repro.NewQDLPFIFOWithOptions(100, repro.QDLPOptions{
		ProbationFrac: 0.25,
		ClockBits:     1,
	})
	fmt.Println(p.Name(), p.Capacity())
	// Output: qd-lp-fifo 100
}
