package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// keyTestSpecs covers every field shape the key rendering must get right:
// defaults, booleans, large seeds, and — the delicate one — floats, which
// must render identically under strconv's shortest 'g' form and fmt's %g.
var keyTestSpecs = []Spec{
	{},
	{App: "counter", Policy: "INV", Prim: "FAP", Variant: "INV", Procs: 16, Contention: 1, WriteRun: 1, Rounds: 6},
	{App: "tts", Policy: "UPD", Prim: "CAS", Variant: "INVd", LoadEx: true, Drop: true, Procs: 64, Contention: 64, Rounds: 256, Seed: ^uint64(0)},
	{App: "counter", WriteRun: 0.5},
	{App: "counter", WriteRun: 1.25},
	{App: "counter", WriteRun: 63.999999999},
	{App: "counter", WriteRun: 1e-3},
	{App: "tclosure", Procs: 32, Size: 64, Seed: 1234567890123456789},
	{App: "mcs", Policy: "UNC", Prim: "LLSC", Procs: 1, Contention: 1, WriteRun: 3.0000000000000004},
}

// TestKeyTextMatchesFmt pins the strconv-based key rendering to the
// fmt.Sprintf form the content address originally hashed. A divergence
// here silently severs every cached result, so the fmt form stays in the
// test as the specification.
func TestKeyTextMatchesFmt(t *testing.T) {
	for _, sp := range keyTestSpecs {
		want := fmt.Sprintf(
			"app=%s policy=%s prim=%s cas=%s ldex=%t drop=%t procs=%d c=%d a=%g rounds=%d size=%d seed=%d",
			sp.App, sp.Policy, sp.Prim, sp.Variant, sp.LoadEx, sp.Drop,
			sp.Procs, sp.Contention, sp.WriteRun, sp.Rounds, sp.Size, sp.Seed)
		if got := string(sp.appendKeyText(nil)); got != want {
			t.Errorf("key text diverged:\n got %q\nwant %q", got, want)
		}
		if len(want) > keyTextMax {
			t.Errorf("key text %q is %d bytes, over the %d stack budget", want, len(want), keyTextMax)
		}
	}
}

// TestAppendKeyMatchesKey checks the incremental form against the
// string-returning one across the same spec set.
func TestAppendKeyMatchesKey(t *testing.T) {
	for _, sp := range keyTestSpecs {
		if got := string(sp.appendKey(nil)); got != sp.Key() {
			t.Errorf("appendKey %q != Key %q for %+v", got, sp.Key(), sp)
		}
	}
}

// TestRawQueryGet pins the in-place query scanner to url.Values semantics
// for the shapes the API sees, including the rare escaped ones.
func TestRawQueryGet(t *testing.T) {
	cases := []struct {
		raw, name string
		want      string
		found     bool
	}{
		{"procs=8&c=4", "procs", "8", true},
		{"procs=8&c=4", "c", "4", true},
		{"procs=8&c=4", "rounds", "", false},
		{"procs=", "procs", "", true},
		{"procs", "procs", "", true},
		{"a=1&a=2", "a", "1", true},                   // first occurrence wins, like Values.Get
		{"app=counter%20x", "app", "counter x", true}, // percent escape
		{"app=counter+x", "app", "counter x", true},   // plus escape
		{"pro%63s=8", "procs", "8", true},             // escaped key still matches
		{"app=%zz&procs=8", "procs", "8", true},       // malformed pair skipped
		{"app=%zz", "app", "", false},
		{"a=1;b=2&c=3", "c", "3", true}, // semicolon pair dropped, like ParseQuery
		{"a=1;b=2", "a", "", false},
		{"", "procs", "", false},
	}
	for _, tc := range cases {
		got, found := rawQueryGet(tc.raw, tc.name)
		if got != tc.want || found != tc.found {
			t.Errorf("rawQueryGet(%q, %q) = (%q, %v), want (%q, %v)",
				tc.raw, tc.name, got, found, tc.want, tc.found)
		}
	}
}

// TestGetSpecParsingUnchanged cross-checks the manual RawQuery parse
// against the url.Values-based parse it replaced, via a request pair.
func TestGetSpecParsingUnchanged(t *testing.T) {
	urls := []string{
		"/v1/sim?app=tts&policy=UPD&prim=CAS&cas=INVd&ldex=true&drop=1&procs=8&c=4&a=1&rounds=3&size=16&seed=42",
		"/v1/sim?procs=8",
		"/v1/sim",
		"/v1/sim?a=2.5",
	}
	for _, u := range urls {
		r := httptest.NewRequest(http.MethodGet, u, nil)
		got, err := ParseSpecRequest(r)
		if err != nil {
			t.Fatalf("%s: %v", u, err)
		}
		q := r.URL.Query()
		want := Spec{App: q.Get("app"), Policy: q.Get("policy"), Prim: q.Get("prim"), Variant: q.Get("cas")}
		if q.Has("ldex") {
			want.LoadEx = true
		}
		if q.Has("drop") {
			want.Drop = true
		}
		fmt.Sscan(q.Get("procs"), &want.Procs)
		fmt.Sscan(q.Get("c"), &want.Contention)
		fmt.Sscan(q.Get("a"), &want.WriteRun)
		fmt.Sscan(q.Get("rounds"), &want.Rounds)
		fmt.Sscan(q.Get("size"), &want.Size)
		fmt.Sscan(q.Get("seed"), &want.Seed)
		if got != want {
			t.Errorf("%s: parsed %+v, want %+v", u, got, want)
		}
	}
}
