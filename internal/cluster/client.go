package cluster

import (
	"errors"

	"repro/internal/concurrent"
	"repro/internal/overload"
	"repro/internal/server"
)

// ClientConfig parameterizes a cluster-aware client.
type ClientConfig struct {
	// Endpoints are the initial ring members (host:port). At least one is
	// required.
	Endpoints []string
	// Dial configures each per-endpoint server.Client (Addr is overridden
	// per endpoint). The zero value means plain fail-fast connections.
	Dial server.DialConfig
	// Seed fixes ring placement; clients sharing Seed, VirtualNodes, and
	// the endpoint set route identically with no coordination.
	Seed int64
	// VirtualNodes is the ring's per-node point count (<=0 selects
	// DefaultVirtualNodes).
	VirtualNodes int
	// Budget, when non-nil, is the shared retry budget every endpoint
	// connection draws from (it becomes each server.Client's Dial.Budget
	// unless one is already set). One bucket across the whole ring keeps
	// total retry amplification bounded even when several nodes fail at
	// once.
	Budget *overload.RetryBudget
	// Breaker tunes the per-endpoint circuit breakers. Zero fields get
	// overload defaults (open after 5 consecutive transport failures, 1s
	// cooldown); an open endpoint fails fast with ErrBreakerOpen instead
	// of burning a connect timeout per operation.
	Breaker overload.BreakerConfig
}

// Client routes cache operations across a ring of servers. Each key is
// digested once (the same xxHash64 the server parses into) and sent through
// the endpoint its digest lands on; endpoints dial lazily on first use.
// Multi-key gets fan out to the owning nodes concurrently and fan back in,
// preserving request order.
//
// Like server.Client, a Client is synchronous and not safe for concurrent
// use: open one per goroutine. (GetMulti's internal fan-out is safe — the
// endpoints it drives are.)
type Client struct {
	cfg  ClientConfig
	ring *Ring
	// eps outlive RemoveNode, so the retry and reconnect tallies of a
	// removed node's closed clients stay counted.
	eps map[string]*endpoint
}

var errEmptyRing = errors.New("cluster: empty ring")

// NewClient builds a cluster client over cfg.Endpoints. Connections are
// dialed lazily, so constructing a client against a partially-up fleet
// succeeds; the first operation routed to a down node surfaces the error
// (or heals it, given a retry budget).
func NewClient(cfg ClientConfig) (*Client, error) {
	if len(cfg.Endpoints) == 0 {
		return nil, errors.New("cluster: no endpoints")
	}
	ring, err := NewRing(cfg.Seed, cfg.VirtualNodes, cfg.Endpoints...)
	if err != nil {
		return nil, err
	}
	return &Client{
		cfg:  cfg,
		ring: ring,
		eps:  make(map[string]*endpoint, len(cfg.Endpoints)),
	}, nil
}

// Ring exposes the client's ring for topology inspection in tests and
// tooling.
func (c *Client) Ring() *Ring { return c.ring }

// endpoint returns addr's endpoint, creating it on first use.
func (c *Client) endpoint(addr string) *endpoint {
	e := c.eps[addr]
	if e == nil {
		dc := c.cfg.Dial
		if dc.Seed == 0 {
			dc.Seed = c.cfg.Seed
		}
		if dc.Budget == nil {
			dc.Budget = c.cfg.Budget
		}
		e = newEndpoint(addr, dc, c.cfg.Breaker)
		c.eps[addr] = e
	}
	return e
}

// owner returns the endpoint owning key's digest.
func (c *Client) owner(key []byte) (*endpoint, error) {
	addr := c.ring.Lookup(concurrent.Digest(key))
	if addr == "" {
		return nil, errEmptyRing
	}
	return c.endpoint(addr), nil
}

// forward runs op through the endpoint owning key.
func (c *Client) forward(key []byte, op func(*server.Client) error) error {
	e, err := c.owner(key)
	if err != nil {
		return err
	}
	return e.do(op)
}

// Get fetches key from its owner node.
func (c *Client) Get(key []byte) (value []byte, found bool, err error) {
	err = c.forward(key, func(sc *server.Client) (err error) {
		value, found, err = sc.Get(key)
		return err
	})
	return value, found, err
}

// Set stores key on its owner node.
func (c *Client) Set(key []byte, flags uint32, value []byte) error {
	return c.forward(key, func(sc *server.Client) error { return sc.Set(key, flags, value) })
}

// GetMulti fetches keys across the ring: keys are grouped by owner node,
// each node's batch issued as one pipelined multi-get on its own goroutine,
// and results fanned back in request order. A node whose batch fails takes
// only its own keys down; the first failed key's error is returned with
// the surviving nodes' results intact.
func (c *Client) GetMulti(keys [][]byte) ([]server.MultiValue, error) {
	eps := make([]*endpoint, len(keys))
	for i, k := range keys {
		e, err := c.owner(k)
		if err != nil {
			return nil, err
		}
		eps[i] = e
	}
	vals, errs := getMulti(keys, eps)
	for _, err := range errs {
		if err != nil {
			return vals, err
		}
	}
	return vals, nil
}

// RemoveNode drops addr from the ring and closes its connections; its
// former keys route to the surviving nodes.
func (c *Client) RemoveNode(addr string) error {
	if err := c.ring.Remove(addr); err != nil {
		return err
	}
	if e := c.eps[addr]; e != nil {
		e.close()
	}
	return nil
}

// RetryBudgetExhausted reports how many retries the shared budget refused
// (0 when no budget is configured).
func (c *Client) RetryBudgetExhausted() int64 { return c.cfg.Budget.Exhausted() }

// BreakerState reports an endpoint's current breaker position (closed for
// endpoints never routed to).
func (c *Client) BreakerState(addr string) overload.BreakerState {
	if e := c.eps[addr]; e != nil {
		return e.brk.State()
	}
	return overload.BreakerClosed
}

// Retries sums transport retries across all endpoint clients, past and
// present.
func (c *Client) Retries() int64 {
	var n int64
	for _, e := range c.eps {
		r, _ := e.clientCounts()
		n += r
	}
	return n
}

// Reconnects sums re-established connections across all endpoint clients,
// past and present.
func (c *Client) Reconnects() int64 {
	var n int64
	for _, e := range c.eps {
		_, r := e.clientCounts()
		n += r
	}
	return n
}

// Close closes every endpoint's connections, returning the first error.
func (c *Client) Close() error {
	var firstErr error
	for _, e := range c.eps {
		if err := e.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// The cluster client drives RunLoad like a single-node client does.
var _ server.LoadConn = (*Client)(nil)
