package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/overload"
	"repro/internal/server"
)

// ErrBreakerOpen is returned for operations routed to an endpoint whose
// circuit breaker is open: the endpoint failed repeatedly and the caller
// refuses to spend a timeout on it until the cooldown lets a probe through.
var ErrBreakerOpen = errors.New("cluster: endpoint circuit breaker open")

// poolSize bounds the idle clients an endpoint keeps.
const poolSize = 16

// nodeCounters is one backend's forwarding tally.
type nodeCounters struct {
	routedGet, routedSet, routedDelete atomic.Int64
	forwardErrors                      atomic.Int64
	replicaReads, replicaWrites        atomic.Int64
}

// endpoint is everything the package knows about talking to one backend:
// its dial configuration, a bounded pool of self-healing clients, its
// circuit breaker and its counters. Every forward, poll and fan-out in
// Router and Client goes through do; it is safe for concurrent use.
type endpoint struct {
	addr string
	dial server.DialConfig // Addr set
	brk  *overload.Breaker
	ctr  nodeCounters

	mu     sync.Mutex
	idle   []*server.Client
	closed bool
	// retries and reconnects tally the clients already closed, so the
	// endpoint's totals survive pool overflow and removal.
	retries, reconnects atomic.Int64
}

func newEndpoint(addr string, dial server.DialConfig, brk overload.BreakerConfig) *endpoint {
	dial.Addr = addr
	return &endpoint{addr: addr, dial: dial, brk: overload.NewBreaker(brk)}
}

// do runs op on a pooled client (dialing one if the pool is empty). A
// breaker denial returns ErrBreakerOpen and counts nothing: nothing was
// attempted, the saved cost is the point. Any other error counts as a
// forward error, but only a transport error charges the breaker — a
// protocol answer means the node is up, just unhelpful, and tripping on it
// would eject healthy capacity. The client always goes back to the pool:
// server.Client reconnects on its next call after any reply it could not
// finish reading.
func (e *endpoint) do(op func(*server.Client) error) error {
	if !e.brk.Allow() {
		return ErrBreakerOpen
	}
	c, err := e.get()
	if err == nil {
		err = op(c)
		e.put(c)
	}
	if err != nil {
		e.ctr.forwardErrors.Add(1)
		if server.IsTransportErr(err) {
			e.brk.Failure()
			return err
		}
	}
	e.brk.Success()
	return err
}

func (e *endpoint) get() (*server.Client, error) {
	e.mu.Lock()
	if n := len(e.idle); n > 0 {
		c := e.idle[n-1]
		e.idle = e.idle[:n-1]
		e.mu.Unlock()
		return c, nil
	}
	e.mu.Unlock()
	c, err := server.DialWithConfig(e.dial)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w", e.addr, err)
	}
	return c, nil
}

// put returns c to the pool, or closes it when the pool is full or the
// endpoint closed while c was on loan.
func (e *endpoint) put(c *server.Client) {
	e.mu.Lock()
	if !e.closed && len(e.idle) < poolSize {
		e.idle = append(e.idle, c)
		e.mu.Unlock()
		return
	}
	e.tally(c)
	e.mu.Unlock()
	c.Close()
}

func (e *endpoint) tally(c *server.Client) {
	e.retries.Add(c.Retries())
	e.reconnects.Add(c.Reconnects())
}

// close shuts the pool: idle clients close now, clients on loan as they
// come back. It returns the first close error.
func (e *endpoint) close() error {
	e.mu.Lock()
	idle := e.idle
	e.idle, e.closed = nil, true
	for _, c := range idle {
		e.tally(c)
	}
	e.mu.Unlock()
	var first error
	for _, c := range idle {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// reopen lets a closed endpoint pool clients again (the node rejoined).
func (e *endpoint) reopen() {
	e.mu.Lock()
	e.closed = false
	e.mu.Unlock()
}

// clientCounts sums Retries and Reconnects over every client the endpoint
// has held: the closed ones' tallies plus the idle ones. A client on loan
// counts once it returns.
func (e *endpoint) clientCounts() (retries, reconnects int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	retries, reconnects = e.retries.Load(), e.reconnects.Load()
	for _, c := range e.idle {
		retries += c.Retries()
		reconnects += c.Reconnects()
	}
	return retries, reconnects
}

// probe is one health-check round trip: a fresh connection under timeout
// and a version exchange. A dedicated dial (never the pool) keeps the probe
// honest — a pooled connection could be healthy while the node refuses new
// ones, and vice versa — and the tight deadline makes a slow node
// indistinguishable from a dead one, which is the operator contract:
// browned-out capacity leaves the ring too.
func (e *endpoint) probe(timeout time.Duration) error {
	dc := e.dial
	dc.ConnectTimeout = timeout
	dc.ReadTimeout = timeout
	dc.WriteTimeout = timeout
	dc.MaxRetries = 0
	dc.Budget = nil
	c, err := server.DialWithConfig(dc)
	if err != nil {
		return err
	}
	defer c.Close()
	_, err = c.Version()
	return err
}

// getMulti is the one multi-get fan-out: eps[i] serves keys[i] (nil: no
// node), keys are grouped by endpoint, each group goes out as one
// pipelined multi-get on its own goroutine, and the answers land in
// request order. errs[i] is the error of the group that carried keys[i].
func getMulti(keys [][]byte, eps []*endpoint) (vals []server.MultiValue, errs []error) {
	vals = make([]server.MultiValue, len(keys))
	errs = make([]error, len(keys))
	groups := make(map[*endpoint][]int)
	for i, e := range eps {
		if e == nil {
			errs[i] = errNodeGone
			continue
		}
		groups[e] = append(groups[e], i)
	}
	var wg sync.WaitGroup
	for e, idxs := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([][]byte, len(idxs))
			for j, i := range idxs {
				batch[j] = keys[i]
			}
			var got []server.MultiValue
			err := e.do(func(c *server.Client) (err error) {
				e.ctr.routedGet.Add(int64(len(batch)))
				got, err = c.GetMulti(batch)
				return err
			})
			for j, i := range idxs {
				if err != nil {
					errs[i] = err
				} else {
					vals[i] = got[j]
				}
			}
		}()
	}
	wg.Wait()
	return vals, errs
}
