package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// nopResponseWriter is a reusable ResponseWriter: a plain header map and
// byte counter, so AllocsPerRun sees only the handler's own allocations,
// not the recorder's.
type nopResponseWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *nopResponseWriter) Header() http.Header         { return w.h }
func (w *nopResponseWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }
func (w *nopResponseWriter) WriteHeader(code int)        { w.status = code }

func (w *nopResponseWriter) reset() {
	clear(w.h)
	w.status = 0
	w.n = 0
}

// reqBody is a request body that can be rewound, so one POST request can
// be served repeatedly inside AllocsPerRun.
type reqBody struct{ strings.Reader }

func (*reqBody) Close() error { return nil }

// TestHitPathZeroAlloc pins the cache-hit path — route, parse, canonical
// JSON, lookup, headers, body write — at zero allocations per request. This
// is the property the zero-copy serving work exists for: a hot key must
// cost a map probe by the spec's canonical JSON, with no hash, and never a
// byte of garbage. The pin covers GET and POST-JSON requests, the POST
// whose body is already the canonical JSON (probed as it stands, before
// any parsing), the identity and the gzip-negotiated variants (once the
// first gzip hit has built the entry's variant), and the probe hit.
func TestHitPathZeroAlloc(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	h := s.Handler()
	const path = "/v1/sim?app=counter&procs=4&rounds=2"
	if w := doGet(s, path); w.Code != http.StatusOK { // prime the cache
		t.Fatalf("prime = %d: %s", w.Code, w.Body)
	}
	sp, err := Spec{App: "counter", Procs: 4, Rounds: 2}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	canonical := string(sp.AppendJSON(nil))
	if _, ok := s.cache.getBytes([]byte(canonical)); !ok || canonical == quickSpec {
		t.Fatalf("%s is not a cache key distinct from quickSpec", canonical)
	}

	body := &reqBody{}
	post := func(gzip bool) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v1/sim", nil)
		r.Body = body
		if gzip {
			r.Header.Set("Accept-Encoding", "gzip")
		}
		return r
	}
	get := func(method string, gzip bool) *http.Request {
		r := httptest.NewRequest(method, path, nil)
		if gzip {
			r.Header.Set("Accept-Encoding", "gzip")
		}
		return r
	}
	cases := []struct {
		name   string
		req    *http.Request
		body   string // POST body
		status int
	}{
		{"get-identity", get(http.MethodGet, false), "", 0},
		{"probe-hit", get(http.MethodHead, false), "", http.StatusOK},
		{"get-gzip", get(http.MethodGet, true), "", 0},
		{"post-identity", post(false), quickSpec, 0},
		{"post-gzip", post(true), quickSpec, 0},
		{"post-canonical", post(false), canonical, 0},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := &nopResponseWriter{h: make(http.Header)}
			run := func() {
				w.reset()
				body.Reset(tc.body)
				h.ServeHTTP(w, tc.req)
			}
			run() // warm the header map's buckets (and build the gzip variant)
			if tc.status != 0 && w.status != tc.status {
				t.Fatalf("status = %d, want %d", w.status, tc.status)
			}
			if tc.req.Method != http.MethodHead && w.n == 0 {
				t.Fatal("hit wrote no body")
			}
			if got := w.h.Get("X-Cache"); got != "hit" {
				t.Fatalf("X-Cache = %q, want hit", got)
			}
			if got, want := w.h.Get("Content-Encoding"), tc.req.Header.Get("Accept-Encoding"); got != want {
				t.Fatalf("Content-Encoding = %q, want %q", got, want)
			}
			if n := testing.AllocsPerRun(50, run); n != 0 {
				t.Fatalf("cache-hit request allocates %.1f times, want 0", n)
			}
		})
	}
}
