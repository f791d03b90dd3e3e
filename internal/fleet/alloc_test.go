// Under the race detector sync.Pool drops pooled items at random, so an
// allocation count means something only without it.

//go:build !race

package fleet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dsm/internal/serve"
)

// inProcess serves the router's upstream calls by calling the backend
// handler for the request's host in process, as the fleet benchmark's
// transport does: no sockets, so an allocation count sees the router and
// the backend, not the network stack.
type inProcess map[string]http.Handler

func (t inProcess) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no in-process backend %q", req.URL.Host)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	resp := w.Result()
	resp.Request = req
	return resp, nil
}

// nopWriter is a reusable ResponseWriter, so AllocsPerRun counts the
// router's allocations and not a recorder's.
type nopWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *nopWriter) Header() http.Header         { return w.h }
func (w *nopWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }
func (w *nopWriter) WriteHeader(code int)        { w.status = code }

// rewindBody is a request body that one POST request can send again.
type rewindBody struct{ strings.Reader }

func (*rewindBody) Close() error { return nil }

// routedHitAllocs bounds the allocations of one warmed routed POST hit
// through inProcess: the router's parse, key, flight, upstream call and
// relay, plus the backend's hit and the transport's recorder.
const routedHitAllocs = 25

// TestRoutedHitAllocs pins what one routed cache hit allocates, end to
// end through an in-process transport.
func TestRoutedHitAllocs(t *testing.T) {
	tr := inProcess{}
	var urls []string
	for i := range 2 {
		b := serve.New(serve.Config{Workers: 1})
		t.Cleanup(b.Close)
		host := fmt.Sprintf("b%d.fleet", i)
		tr[host] = b.Handler()
		urls = append(urls, "http://"+host)
	}
	rt, err := New(Config{Backends: urls, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()
	body := &rewindBody{}
	req := httptest.NewRequest(http.MethodPost, "/v1/sim", nil)
	req.Body = body
	w := &nopWriter{h: make(http.Header)}
	run := func() {
		clear(w.h)
		w.status, w.n = 0, 0
		body.Reset(quickSpec)
		h.ServeHTTP(w, req)
	}
	run() // the miss
	run() // warm the header map and the body pool
	if w.status != http.StatusOK || w.n == 0 || w.h.Get("X-Cache") != "hit" {
		t.Fatalf("warmed request = %d, %d bytes, X-Cache %q; want a 200 hit", w.status, w.n, w.h.Get("X-Cache"))
	}
	n := testing.AllocsPerRun(100, run)
	if w.h.Get("X-Cache") != "hit" {
		t.Fatalf("X-Cache = %q, want hit", w.h.Get("X-Cache"))
	}
	t.Logf("routed hit: %.1f allocs", n)
	if n > routedHitAllocs {
		t.Fatalf("routed hit allocates %.1f times, want at most %d", n, routedHitAllocs)
	}
}
