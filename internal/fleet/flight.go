package fleet

import "sync"

// flightCall is one in-flight upstream resolution shared by every router
// request for the same key: the leader resolves against the key's owner
// and publishes the upstream result; followers wait on done and relay it.
// This is the fleet-wide single-flight — a burst of N identical misses
// through the router costs one upstream request, not N, on top of
// whatever coalescing the owning backend would have done itself (the
// router version also saves the N-1 upstream connections).
type flightCall struct {
	done      chan struct{}
	res       *upstream
	err       error
	followers int // joins after the leader's; guarded by the group mutex
}

// flightGroup is the router's in-flight table. A single mutex is enough
// here: entries are touched once per upstream resolution (network-bound),
// not once per cache lookup the way the backend's sharded table is.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// join returns the call for key, creating it when absent; leader reports
// whether this caller must resolve it.
func (g *flightGroup) join(key string) (c *flightCall, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		c.followers++
		return c, false
	}
	c = &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	return c, true
}

// complete publishes the leader's result and wakes every follower. The key
// is removed before done closes so a late arrival starts a fresh
// resolution — which will land on a backend cache hit anyway. The returned
// follower count is final (joins stop once the key is gone): zero means
// the leader is the result's only reader and may recycle its buffer after
// relaying.
func (g *flightGroup) complete(key string, c *flightCall, res *upstream, err error) int {
	c.res, c.err = res, err
	g.mu.Lock()
	delete(g.calls, key)
	n := c.followers
	g.mu.Unlock()
	close(c.done)
	return n
}
