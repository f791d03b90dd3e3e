package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"dsm/internal/exper"
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
// here silently changes every published content address, so the fmt form
// stays in the test as the specification.
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

// TestSpecJSONMax checks the stack bound on the canonical JSON the cache
// is keyed by, the way TestKeyTextMatchesFmt checks keyTextMax: a spec
// with every field present at its widest, a combination no normalized spec
// reaches, still fits, and so does every key test spec that normalizes.
func TestSpecJSONMax(t *testing.T) {
	longest := func(names []string) string {
		w := ""
		for _, n := range names {
			if len(n) > len(w) {
				w = n
			}
		}
		return w
	}
	widest := Spec{
		App: longest(exper.AppNames()), Policy: longest(exper.PolicyNames()),
		Prim: longest(exper.PrimNames()), Variant: longest(exper.VariantNames()),
		LoadEx: true, Drop: true, Procs: 64, Contention: 64,
		WriteRun: 10.000000000000002, // 17 significant digits, two before the point
		Rounds:   MaxRounds, Size: MaxSize, Seed: ^uint64(0),
	}
	specs := []Spec{widest}
	for _, sp := range keyTestSpecs {
		if n, err := sp.Normalize(); err == nil {
			specs = append(specs, n)
		}
	}
	for _, sp := range specs {
		if b := sp.AppendJSON(nil); len(b) > specJSONMax {
			t.Errorf("canonical JSON %s is %d bytes, over the %d stack budget", b, len(b), specJSONMax)
		}
	}
}

// TestKeyIsDigestOfKeyText checks the content address against its
// definition: the hex SHA-256 of the key text.
func TestKeyIsDigestOfKeyText(t *testing.T) {
	for _, sp := range keyTestSpecs {
		sum := sha256.Sum256(sp.appendKeyText(nil))
		if got, want := sp.Key(), hex.EncodeToString(sum[:]); got != want {
			t.Errorf("Key %q != hex SHA-256 of the key text %q for %+v", got, want, sp)
		}
	}
}

// TestWriteRunMatchesAppendFloat pins the key text's integer fast path for
// the write-run to the shortest 'g' form it replaces, at every canonical
// integral value and on both sides of the fast path's edges: 1e6, where 'g'
// turns to an exponent, and -0, which 'g' signs.
func TestWriteRunMatchesAppendFloat(t *testing.T) {
	as := []float64{0, 1.5, 999999, 1e6, math.Copysign(0, -1)}
	for a := 1; a <= 64; a++ {
		as = append(as, float64(a))
	}
	for _, a := range as {
		want := strconv.AppendFloat(nil, a, 'g', -1, 64)
		if got := appendWriteRun(nil, a); string(got) != string(want) {
			t.Errorf("appendWriteRun(%v) = %q, AppendFloat 'g' = %q", a, got, want)
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
