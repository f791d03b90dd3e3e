package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
)

// caller is one client's in-process round trip to a handler: the request
// and the response recorder are reused across calls, so the client adds
// the same small, allocation-free cost to every request and latency moves
// only with the stack under test. There are no sockets: loopback syscalls
// would dominate the numbers on a small container.
type caller struct {
	h    http.Handler
	req  *http.Request
	body reqBody
	w    recorder
}

// reqBody is a reusable request body.
type reqBody struct{ bytes.Reader }

func (*reqBody) Close() error { return nil }

func newCaller(h http.Handler, path string) *caller {
	req, err := http.NewRequest(http.MethodPost, "http://bench"+path, nil)
	if err != nil {
		panic(err) // the path is a constant of this package
	}
	req.Header.Set("Content-Type", "application/json")
	return &caller{h: h, req: req, w: recorder{h: make(http.Header)}}
}

// newCallers returns one caller per client.
func newCallers(h http.Handler, path string) [clients]*caller {
	var cs [clients]*caller
	for c := range cs {
		cs[c] = newCaller(h, path)
	}
	return cs
}

// post sends body and returns the status and the response body. The body
// slice is only valid until the next post.
func (c *caller) post(body []byte) (int, []byte) {
	c.body.Reset(body)
	c.req.Body = &c.body
	c.req.ContentLength = int64(len(body))
	c.w.reset()
	c.h.ServeHTTP(&c.w, c.req)
	if c.w.code == 0 {
		c.w.code = http.StatusOK
	}
	return c.w.code, c.w.buf.Bytes()
}

// cache returns the X-Cache header of the last response.
func (c *caller) cache() string { return c.w.h.Get("X-Cache") }

// recorder is a reusable http.ResponseWriter.
type recorder struct {
	h    http.Header
	code int
	buf  bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.h }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.buf.Write(p)
}

func (r *recorder) reset() {
	clear(r.h)
	r.code = 0
	r.buf.Reset()
}

// transport serves the fleet router's upstream requests by calling the
// backend handler for the request's host in process, on the router's own
// goroutine. Under a tracer it records a "backend" span per upstream call
// on the lane of the client goroutine that is waiting on it.
type transport struct {
	backends map[string]http.Handler
	tr       *tracer
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t.backends[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("bench: no in-process backend %q", req.URL.Host)
	}
	l := t.tr.current()
	s := l.begin("backend")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	l.end(s)
	resp := w.Result()
	resp.Request = req
	return resp, nil
}
