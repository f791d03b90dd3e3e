package serve

import "sync"

// Call is one in-flight piece of work that concurrent callers for the same
// key share. The leader publishes Val and Err through Flight.Complete;
// followers wait on Done and then read them.
type Call[T any] struct {
	done      chan struct{}
	Val       T
	Err       error
	followers int // joins after the leader's; guarded by the flight mutex
}

// Done is closed once the leader has published Val and Err.
func (c *Call[T]) Done() <-chan struct{} { return c.done }

// Flight coalesces duplicate work by key: the first caller for a key
// becomes the leader and executes; callers arriving before the leader
// completes become followers of the same call. This is the single-flight
// pattern — under a burst of N identical requests, the work runs once and
// N-1 callers pay only the wait. The server coalesces simulations with it,
// and the fleet router coalesces upstream fetches. One mutex guards the
// table: a call is joined and completed once per simulation or upstream
// round trip, which costs milliseconds, so the lock is never the
// bottleneck. The zero value is ready to use.
type Flight[T any] struct {
	mu    sync.Mutex
	calls map[string]*Call[T]
}

// Join returns the call for key, creating it when absent; leader reports
// whether this caller must execute the work and Complete the call.
func (f *Flight[T]) Join(key string) (c *Call[T], leader bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.calls[key]; ok {
		c.followers++
		return c, false
	}
	if f.calls == nil {
		f.calls = make(map[string]*Call[T])
	}
	c = &Call[T]{done: make(chan struct{})}
	f.calls[key] = c
	return c, true
}

// Complete publishes the leader's result and wakes every follower. The key
// is removed before Done closes, so a caller arriving after completion
// starts a fresh call (which will find the result cached anyway). The
// returned follower count is final, since no join can reach the call once
// its key is gone: zero means the leader is the result's only reader.
func (f *Flight[T]) Complete(key string, c *Call[T], val T, err error) int {
	c.Val, c.Err = val, err
	f.mu.Lock()
	delete(f.calls, key)
	n := c.followers
	f.mu.Unlock()
	close(c.done)
	return n
}
