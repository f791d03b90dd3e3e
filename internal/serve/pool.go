package serve

import (
	"sync"
	"time"

	"dsm/internal/exper"
)

// workerPool runs simulations on a fixed set of goroutines fed by a
// bounded queue. The queue bound is the service's backpressure valve: when
// it is full, submit fails immediately and the handler answers 429 rather
// than letting latency grow without bound.
//
// Each worker goroutine owns one exper.MachineSlot for its lifetime and
// hands it to every job it runs: a job executes its simulation on the
// slot's resident machine, which the next job on the same worker resets
// and reuses. Machines therefore never cross goroutines: at GOMAXPROCS > 1
// the per-request path takes no lock and hands no machine between cores.
type workerPool struct {
	mu     sync.Mutex // serializes submit against close
	closed bool
	jobs   chan func(*exper.MachineSlot)
	wg     sync.WaitGroup
}

func newWorkerPool(workers, queue int) *workerPool {
	p := &workerPool{jobs: make(chan func(*exper.MachineSlot), queue)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			var slot exper.MachineSlot // this worker's machine, reused across jobs
			for job := range p.jobs {
				job(&slot)
			}
		}()
	}
	return p
}

// submit enqueues one job, reporting false when the queue is full or the
// pool is draining. The mutex makes submit safe against a concurrent
// close (a bare send racing a channel close would panic).
func (p *workerPool) submit(job func(*exper.MachineSlot)) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	select {
	case p.jobs <- job:
		return true
	default:
		return false
	}
}

// submitWait enqueues one job, waiting up to wait for queue space to free.
// It polls submit rather than blocking on the channel directly so a
// concurrent close cannot panic a pending send; the 1ms poll is noise
// against simulation times. A wait of zero degenerates to one try. The
// batch sweep dispatcher uses this so plans larger than the queue bound
// drain through it instead of bouncing.
func (p *workerPool) submitWait(job func(*exper.MachineSlot), wait time.Duration) bool {
	deadline := time.Now().Add(wait)
	for {
		if p.submit(job) {
			return true
		}
		if wait <= 0 || !time.Now().Before(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// depth returns the number of queued (not yet started) jobs.
func (p *workerPool) depth() int { return len(p.jobs) }

// close drains the pool: no further submissions are accepted, queued jobs
// run to completion, and close returns once every worker has exited. This
// is the graceful-shutdown path — in-flight simulations finish and their
// waiters get responses.
func (p *workerPool) close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.jobs)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
