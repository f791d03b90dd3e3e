package serve

import (
	"bytes"
	"compress/gzip"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func gunzip(t *testing.T, b []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("gzip header: %v", err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip: %v", err)
	}
	return out
}

// TestGzipVariantDecompressedIdentity is the compression contract: a
// cache-hit response negotiated to gzip must inflate to exactly the bytes
// an identity response carries — same simulation, same encoding, different
// wire representation only.
func TestGzipVariantDecompressedIdentity(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	if w := doJSON(s, quickSpec); w.Code != http.StatusOK { // prime the cache
		t.Fatalf("prime = %d: %s", w.Code, w.Body)
	}
	plain := doJSON(s, quickSpec)
	if plain.Code != http.StatusOK || plain.Header().Get("X-Cache") != "hit" {
		t.Fatalf("plain hit = %d X-Cache=%q", plain.Code, plain.Header().Get("X-Cache"))
	}
	if enc := plain.Header().Get("Content-Encoding"); enc != "" {
		t.Fatalf("identity response carries Content-Encoding %q", enc)
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/sim", strings.NewReader(quickSpec))
	req.Header.Set("Accept-Encoding", "gzip, deflate")
	zw := httptest.NewRecorder()
	s.Handler().ServeHTTP(zw, req)
	if zw.Code != http.StatusOK || zw.Header().Get("X-Cache") != "hit" {
		t.Fatalf("gzip hit = %d X-Cache=%q: %s", zw.Code, zw.Header().Get("X-Cache"), zw.Body)
	}
	if enc := zw.Header().Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", enc)
	}
	if vary := zw.Header().Get("Vary"); vary != "Accept-Encoding" {
		t.Fatalf("Vary = %q, want Accept-Encoding", vary)
	}
	if zw.Body.Len() >= plain.Body.Len() {
		t.Fatalf("gzip body (%d bytes) not smaller than identity (%d bytes)", zw.Body.Len(), plain.Body.Len())
	}
	if got := gunzip(t, zw.Body.Bytes()); !bytes.Equal(got, plain.Body.Bytes()) {
		t.Fatal("gzip variant does not inflate to the identity bytes")
	}
}

// TestSweepStreamsIdentityEncoding pins the batch endpoint to identity
// bodies regardless of Accept-Encoding: NDJSON lines interleave results as
// they finish, which cannot be represented as one gzip stream per line.
func TestSweepStreamsIdentityEncoding(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	plan := `{"points":[` + quickSpec + `]}`
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(plan))
	req.Header.Set("Accept-Encoding", "gzip")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("sweep = %d: %s", w.Code, w.Body)
	}
	if enc := w.Header().Get("Content-Encoding"); enc != "" {
		t.Fatalf("sweep Content-Encoding = %q, want identity", enc)
	}
	single := doJSON(s, quickSpec)
	if !bytes.Equal(w.Body.Bytes(), single.Body.Bytes()) {
		t.Fatal("sweep line differs from the /v1/sim body for the same spec")
	}
}

// gzipBuilt counts the cache entries whose gzip variant has been built.
func gzipBuilt(s *Server) (built, entries int) {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	for el := s.cache.ll.Front(); el != nil; el = el.Next() {
		entries++
		if el.Value.(*cacheEntry).gz.Load() != nil {
			built++
		}
	}
	return built, entries
}

// TestGzipVariantBuiltOnFirstGzipHit checks that compression waits for a
// client that asks for it: misses and identity hits store the identity
// bytes only, and the first gzip hit builds the variant.
func TestGzipVariantBuiltOnFirstGzipHit(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	const other = `{"app":"counter","procs":4,"rounds":3}`
	for i := 0; i < 3; i++ {
		if w := doJSON(s, quickSpec); w.Code != http.StatusOK {
			t.Fatalf("sim %d = %d: %s", i, w.Code, w.Body)
		}
	}
	if w := doJSON(s, other); w.Code != http.StatusOK {
		t.Fatalf("second sim = %d: %s", w.Code, w.Body)
	}
	if built, entries := gzipBuilt(s); entries != 2 || built != 0 {
		t.Fatalf("after misses and hits: %d of %d entries have a gzip variant, want 0 of 2", built, entries)
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/sim", strings.NewReader(quickSpec))
	req.Header.Set("Accept-Encoding", "gzip")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Header().Get("Content-Encoding") != "gzip" {
		t.Fatalf("gzip hit = %d enc=%q", w.Code, w.Header().Get("Content-Encoding"))
	}
	if built, entries := gzipBuilt(s); built != 1 {
		t.Fatalf("after one gzip hit: %d of %d entries have a gzip variant, want 1", built, entries)
	}
}

// TestGzipVariantConcurrentFirstHits races many first gzip hits on one
// entry: every response must carry the same bytes, inflating to the
// identity body, however the builds interleave.
func TestGzipVariantConcurrentFirstHits(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	plain := doJSON(s, quickSpec)
	if plain.Code != http.StatusOK {
		t.Fatalf("sim = %d", plain.Code)
	}
	const n = 16
	bodies := make([][]byte, n)
	var start, wg sync.WaitGroup
	start.Add(1)
	wg.Add(n)
	for i := range n {
		go func() {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodPost, "/v1/sim", strings.NewReader(quickSpec))
			req.Header.Set("Accept-Encoding", "gzip")
			w := httptest.NewRecorder()
			start.Wait()
			s.Handler().ServeHTTP(w, req)
			if w.Header().Get("Content-Encoding") != "gzip" {
				t.Errorf("hit %d: Content-Encoding = %q", i, w.Header().Get("Content-Encoding"))
			}
			bodies[i] = w.Body.Bytes()
		}()
	}
	start.Done()
	wg.Wait()
	for i, b := range bodies {
		if !bytes.Equal(b, bodies[0]) {
			t.Fatalf("gzip hit %d differs from hit 0", i)
		}
	}
	if got := gunzip(t, bodies[0]); !bytes.Equal(got, plain.Body.Bytes()) {
		t.Fatal("gzip variant does not inflate to the identity bytes")
	}
}

// TestIncompressibleBodyServedIdentity checks a body at or above the gzip
// threshold that does not shrink: gzip clients get the identity bytes,
// and the response still carries Vary, since whether it compresses is a
// property of the bytes, decided only once a gzip client asks.
func TestIncompressibleBodyServedIdentity(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	data := make([]byte, 4*minGzipSize)
	rand.NewChaCha8([32]byte{1}).Read(data)
	sp, err := Spec{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	s.cache.put(string(sp.AppendJSON(nil)), sp.Key(), data)
	for _, accept := range []string{"", "gzip"} {
		req := httptest.NewRequest(http.MethodPost, "/v1/sim", strings.NewReader("{}"))
		if accept != "" {
			req.Header.Set("Accept-Encoding", accept)
		}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Header().Get("X-Cache") != "hit" || w.Header().Get("Content-Encoding") != "" {
			t.Fatalf("Accept-Encoding %q: X-Cache=%q Content-Encoding=%q", accept,
				w.Header().Get("X-Cache"), w.Header().Get("Content-Encoding"))
		}
		if w.Header().Get("Vary") != "Accept-Encoding" {
			t.Fatalf("Accept-Encoding %q: Vary = %q, want Accept-Encoding", accept, w.Header().Get("Vary"))
		}
		if !bytes.Equal(w.Body.Bytes(), data) {
			t.Fatalf("Accept-Encoding %q: body is not the stored bytes", accept)
		}
	}
}

func TestAcceptsGzip(t *testing.T) {
	cases := []struct {
		hdr  string
		want bool
	}{
		{"", false},
		{"gzip", true},
		{"gzip, deflate", true},
		{"deflate, gzip", true},
		{"deflate, gzip;q=1.0", true},
		{"gzip;q=0", false},
		{"gzip;q=0.0", false},
		{"gzip;q=0.5", true},
		{"br", false},
		{"notgzip", false},
		{" gzip ", true},
		// RFC 9110: coding names are case-insensitive (§8.4.1), x-gzip
		// is gzip (§8.4.1.3), and so are parameter names (§5.6.6).
		{"GZIP", true},
		{"Gzip, deflate", true},
		{"x-gzip", true},
		{"X-GZIP;q=0.8", true},
		{"x-gzip;q=0", false},
		{"gzip;Q=0", false},
		{"GZIP; Q=0.000", false},
		{"gzip;Q=1", true},
		{"gzip;qq=0", true},
	}
	for _, tc := range cases {
		r := httptest.NewRequest(http.MethodGet, "/v1/sim", nil)
		if tc.hdr != "" {
			r.Header.Set("Accept-Encoding", tc.hdr)
		}
		if got := AcceptsGzip(r); got != tc.want {
			t.Errorf("AcceptsGzip(%q) = %v, want %v", tc.hdr, got, tc.want)
		}
	}
}
