package concurrent

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/obs"
)

// config collects the functional options New applies before dispatching to
// a policy factory. Option relevance is tracked explicitly so a factory can
// reject options that do not apply to its policy instead of silently
// ignoring them — a misconfigured benchmark is worse than a loud error.
type config struct {
	shards       int
	clockBits    int
	clockBitsSet bool
	qdlp         QDLPOptions
	qdlpSet      bool
	recorder     *obs.Recorder
	maxBytes     int64
	maxEntries   int

	// The capacity mode, resolved by New from the options above: the
	// budget in cost units, whether those units are accounted bytes, and
	// the smallest budgets a shard and a region within it may be given
	// (one object; under a byte cap no object is cheaper than
	// EntryOverhead and a small one costs about twice that).
	max       int64
	byBytes   bool
	minShard  int64
	minRegion int64
}

const defaultShards = 16

func defaultConfig() config {
	return config{shards: defaultShards, clockBits: 2}
}

// Option configures New. Options validate eagerly: a bad value fails the
// New call rather than being clamped.
type Option func(*config) error

// WithShards sets the shard count (rounded up to a power of two). It
// applies to every policy.
func WithShards(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("concurrent: shard count %d must be positive", n)
		}
		c.shards = n
		return nil
	}
}

// WithClockBits sets the CLOCK counter width in bits, 1–6 (1 =
// FIFO-Reinsertion, 2 = the paper's choice). It applies to the clock policy
// (the queue's counters) and to qdlp (the main region's counters).
func WithClockBits(bits int) Option {
	return func(c *config) error {
		if bits < 1 || bits > 6 {
			return fmt.Errorf("concurrent: clock bits %d outside [1, 6]", bits)
		}
		c.clockBits = bits
		c.clockBitsSet = true
		c.qdlp.ClockBits = bits
		return nil
	}
}

// WithQDLPOptions sets the QD-LP-FIFO parameters (probation share, ghost
// factor, main-region CLOCK bits, size-aware admission). It applies only to
// the qdlp policy.
func WithQDLPOptions(opts QDLPOptions) Option {
	return func(c *config) error {
		if c.clockBitsSet && opts.ClockBits == 0 {
			opts.ClockBits = c.clockBits // compose with an earlier WithClockBits
		}
		c.qdlp = opts
		c.qdlpSet = true
		return nil
	}
}

// WithMaxBytes caps the cache by accounted bytes instead of object count:
// every Set's value is taken as the object's cost in bytes
// (len(key)+len(value)+EntryOverhead when driven through a KV; see
// EntryCost). It applies to every policy and is mutually exclusive with
// WithMaxEntries and with a nonzero positional capacity.
func WithMaxBytes(n int64) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("concurrent: max bytes %d must be positive", n)
		}
		c.maxBytes = n
		return nil
	}
}

// WithMaxEntries caps the cache by object count: every object costs one
// unit whatever its value. It is the named form of New's positional
// capacity argument, and mutually exclusive with it and with WithMaxBytes.
func WithMaxEntries(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("concurrent: max entries %d must be positive", n)
		}
		c.maxEntries = n
		return nil
	}
}

// WithRecorder attaches a lifecycle-event recorder to the constructed cache
// (see Cache.SetRecorder). It applies to every policy; a nil recorder is
// allowed and leaves tracing disabled.
func WithRecorder(rec *obs.Recorder) Option {
	return func(c *config) error {
		c.recorder = rec
		return nil
	}
}

// Factory constructs one policy's cache from the validated option set.
type Factory func(cfg config) (Cache, error)

var (
	regMu     sync.RWMutex
	factories = map[string]Factory{}
)

// Register adds a named cache factory to the registry. Like core.Register
// it panics on a duplicate name: registration happens in init functions
// where a duplicate is a programming error.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := factories[name]; dup {
		panic(fmt.Sprintf("concurrent: duplicate cache registration %q", name))
	}
	factories[name] = f
}

// Names returns the registered cache policy names in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(factories))
	for n := range factories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// New constructs the named thread-safe cache — the concurrent counterpart
// of core.New. Policy-specific knobs are functional options; an option that
// does not apply to the chosen policy is an error, as is an unknown policy
// name:
//
//	c, err := concurrent.New("qdlp", 0, concurrent.WithMaxBytes(512<<20))
//	c, err := concurrent.New("qdlp", 0, concurrent.WithMaxEntries(1<<20))
//
// The capacity argument is the positional spelling of WithMaxEntries, kept
// for call sites that size a cache by a plain count: exactly one of
// {nonzero capacity, WithMaxEntries, WithMaxBytes} must be given.
func New(policy string, capacity int, opts ...Option) (Cache, error) {
	cfg := defaultConfig()
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	switch {
	case cfg.maxBytes > 0 && cfg.maxEntries > 0:
		return nil, fmt.Errorf("concurrent: WithMaxBytes and WithMaxEntries are mutually exclusive")
	case cfg.maxBytes > 0 && capacity != 0:
		return nil, fmt.Errorf("concurrent: WithMaxBytes conflicts with the positional (entry) capacity %d", capacity)
	case cfg.maxEntries > 0 && capacity != 0:
		return nil, fmt.Errorf("concurrent: WithMaxEntries conflicts with the positional capacity %d (drop one)", capacity)
	case cfg.maxBytes > 0:
		cfg.max, cfg.byBytes, cfg.minShard, cfg.minRegion = cfg.maxBytes, true, minShardBytes, EntryOverhead
	case cfg.maxEntries > 0 || capacity > 0:
		cfg.max, cfg.minShard, cfg.minRegion = int64(max(cfg.maxEntries, capacity)), 1, 1
	default:
		return nil, fmt.Errorf("concurrent: capacity must be set via WithMaxBytes, WithMaxEntries, or the positional argument")
	}
	regMu.RLock()
	f, ok := factories[policy]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("concurrent: unknown cache policy %q (known: %v)", policy, Names())
	}
	c, err := f(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.recorder != nil {
		c.SetRecorder(cfg.recorder)
	}
	return c, nil
}

// rejectOptions errors when an option irrelevant to the policy was set.
func rejectOptions(policy string, cfg config, clockBits, qdlp bool) error {
	if cfg.clockBitsSet && !clockBits {
		return fmt.Errorf("concurrent: policy %q does not take WithClockBits", policy)
	}
	if cfg.qdlpSet && !qdlp {
		return fmt.Errorf("concurrent: policy %q does not take WithQDLPOptions", policy)
	}
	return nil
}

func init() {
	Register("lru", newLRU)
	Register("clock", newClock)
	Register("sieve", newSieve)
	Register("qdlp", newQDLP)
}
