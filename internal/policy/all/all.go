// Package all links every eviction policy into the importing binary so the
// core registry can construct any of them by name. Tools, benchmarks, and
// the experiment harness import it for side effects:
//
//	import _ "repro/internal/policy/all"
package all

import (
	_ "repro/internal/policy/admit"
	_ "repro/internal/policy/arc"
	_ "repro/internal/policy/belady"
	_ "repro/internal/policy/cacheus"
	_ "repro/internal/policy/car"
	_ "repro/internal/policy/clock"
	_ "repro/internal/policy/fifo"
	_ "repro/internal/policy/lazylru"
	_ "repro/internal/policy/lecar"
	_ "repro/internal/policy/lfu"
	_ "repro/internal/policy/lhd"
	_ "repro/internal/policy/lirs"
	_ "repro/internal/policy/lru"
	_ "repro/internal/policy/mglru"
	_ "repro/internal/policy/qd"
	_ "repro/internal/policy/qdlp"
	_ "repro/internal/policy/s3fifo"
	_ "repro/internal/policy/sieve"
	_ "repro/internal/policy/ttl"
)
