package main

import (
	"sync"
	"time"
)

// The reference host is shared with other tenants' work, and its speed
// drifts with theirs: the same fixed simulation takes up to 1.6 times as
// long in some stretches as in others, each stretch lasting tens of
// seconds or more, with process CPU time rising as much as wall time. A
// run cannot outlast that drift,
// so the end-to-end timings are scaled to a fixed host speed instead. A
// reference kernel runs before every window and after the last one, and
// each window's times are multiplied by the host speed measured around
// it. The kernel uses only the standard library and this file, so no
// change to the program under test changes its speed.

// refIters is each kernel copy's work. refNominal is a fixed constant
// close to its time on the reference host when the host is quiet; host
// speed 1 means that time, and speeds of 0.8-0.9 are common.
const (
	refIters   = 1_000_000
	refNominal = 60 * time.Millisecond
)

// refSlabWords sizes each copy's random-access slab (2 MiB), so the
// kernel, like a simulation, misses the private caches.
const refSlabWords = 1 << 18

// probe measures host speed with one kernel copy per client, run at the
// same time, since a workload keeps both CPUs busy.
type probe struct {
	slabs [clients][]uint64
	sink  uint64
}

func newProbe() *probe {
	p := &probe{}
	for c := range p.slabs {
		p.slabs[c] = make([]uint64, refSlabWords)
	}
	p.speed() // fault the slabs in
	return p
}

// speed runs the kernel and returns refNominal over its mean time: below
// 1 when the host is slower than a quiet reference host. A time t
// measured at speed s reads t*s at speed 1.
func (p *probe) speed() float64 {
	var (
		wg  sync.WaitGroup
		dur [clients]time.Duration
		acc [clients]uint64
	)
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			acc[c] = refKernel(p.slabs[c], refIters)
			dur[c] = time.Since(t0)
		}()
	}
	wg.Wait()
	var mean time.Duration
	for c := range clients {
		p.sink += acc[c]
		mean += dur[c] / clients
	}
	return float64(refNominal) / float64(mean)
}

// refKernel does n steps of what a discrete-event simulator spends its
// time on: pop the earliest of 1024 timed keys from a binary heap, touch
// a random word of slab, and push the key back a random delay later. It
// allocates nothing, so no collection runs during it.
func refKernel(slab []uint64, n int) uint64 {
	var h [1024]uint64
	x := uint64(88172645463325252)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range h {
		h[i] = uint64(i) // a sorted array is a valid min-heap
	}
	mask := uint64(len(slab) - 1)
	var acc, j uint64
	for range n {
		t := h[0]
		j = (slab[j&mask] + rnd()) & mask
		slab[j] += t
		acc += slab[j]
		// Replace the root with its later time and sift it down.
		h[0] = t + rnd()&63 + 1
		for i := 0; ; {
			l := 2*i + 1
			if l >= len(h) {
				break
			}
			if r := l + 1; r < len(h) && h[r] < h[l] {
				l = r
			}
			if h[i] <= h[l] {
				break
			}
			h[i], h[l] = h[l], h[i]
			i = l
		}
	}
	return acc
}
