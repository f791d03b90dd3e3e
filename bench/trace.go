package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// tracer records spans around the benchmark's own calls into each layer.
// Spans live in memory, one lane per goroutine that records them, and are
// written as Chrome trace-event JSON at the end of the run. A nil tracer
// (and the nil lanes it hands out) records nothing, so untraced runs pay a
// nil check per span.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	lanes []*lane
	byGID sync.Map // goroutine id -> *lane
}

// span is one timed call. Times are nanoseconds since the tracer's epoch;
// parent indexes the same lane's spans (-1 for a root).
type span struct {
	name       string
	start, end int64
	parent     int32
	req        int64
}

// lane is the span buffer of one goroutine. Only that goroutine appends.
type lane struct {
	tr    *tracer
	name  string
	spans []span
	open  int32 // innermost open span, -1 for none
	req   int64 // request id inherited by new spans
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// lane registers a new lane for the calling goroutine.
func (t *tracer) lane(name string) *lane {
	if t == nil {
		return nil
	}
	l := &lane{tr: t, name: name, open: -1, req: -1}
	t.mu.Lock()
	t.lanes = append(t.lanes, l)
	t.mu.Unlock()
	t.byGID.Store(goid(), l)
	return l
}

// current returns the calling goroutine's lane. Code that runs on a
// client's goroutine but outside the benchmark's call frames (the fleet
// router calling its transport) uses it to nest under that client's
// open span.
func (t *tracer) current() *lane {
	if t == nil {
		return nil
	}
	if l, ok := t.byGID.Load(goid()); ok {
		return l.(*lane)
	}
	return nil
}

// goid parses the calling goroutine's id from its stack header
// ("goroutine 123 [running]:"). It costs about a microsecond, which is
// why only traced runs call it.
func goid() int64 {
	var buf [32]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// request opens the root span of work item req.
func (l *lane) request(req int) int32 {
	if l == nil {
		return -1
	}
	l.req = int64(req)
	return l.begin("request")
}

// begin opens a span nested in the lane's innermost open span.
func (l *lane) begin(name string) int32 {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{name: name, start: l.tr.now(), end: -1, parent: l.open, req: l.req})
	l.open = int32(len(l.spans) - 1)
	return l.open
}

// end closes span i.
func (l *lane) end(i int32) {
	if l == nil {
		return
	}
	l.spans[i].end = l.tr.now()
	l.open = l.spans[i].parent
}

// rename relabels span i, for outcomes known only once the call returns.
func (l *lane) rename(i int32, name string) {
	if l != nil {
		l.spans[i].name = name
	}
}

// spanStats holds the durations and self times of every span of one name,
// in microseconds. A span's self time is its duration minus the time its
// child spans cover.
type spanStats struct {
	dur, self []float64
}

// stats aggregates all closed spans by name.
func (t *tracer) stats() map[string]*spanStats {
	out := make(map[string]*spanStats)
	if t == nil {
		return out
	}
	for _, l := range t.lanes {
		child := make([]int64, len(l.spans))
		for _, s := range l.spans {
			if s.parent >= 0 && s.end >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range l.spans {
			if s.end < 0 {
				continue
			}
			st := out[s.name]
			if st == nil {
				st = &spanStats{}
				out[s.name] = st
			}
			d := s.end - s.start
			st.dur = append(st.dur, float64(d)/1e3)
			st.self = append(st.self, float64(d-child[i])/1e3)
		}
	}
	return out
}

// maxTraceEvents caps the trace file; the statistics use every span.
const maxTraceEvents = 200_000

// write saves the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto): one complete event per span, one thread per lane, with the
// request id and parent span in args.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	n := 0
	for tid, l := range t.lanes {
		if n > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, `{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, tid, l.name)
		n++
		for i, s := range l.spans {
			if s.end < 0 || n >= maxTraceEvents {
				continue
			}
			fmt.Fprintf(w, `,{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"req":%d}}`,
				s.name, tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.req)
			n++
		}
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
