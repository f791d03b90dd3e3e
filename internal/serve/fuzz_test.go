package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
)

// referenceSpec is the decode parseSpecBody must agree with:
// encoding/json with unknown fields refused, reading the first JSON value
// of a body bounded at maxSpecBody bytes.
func referenceSpec(body []byte) (Spec, error) {
	var sp Spec
	if len(body) > maxSpecBody {
		return sp, &http.MaxBytesError{Limit: maxSpecBody}
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&sp)
	return sp, err
}

// sameSpec compares specs field for field, floats by bit pattern, so a
// -0 decoded as 0 counts as a difference.
func sameSpec(a, b Spec) bool {
	wa, wb := a.WriteRun, b.WriteRun
	a.WriteRun, b.WriteRun = 0, 0
	return a == b && math.Float64bits(wa) == math.Float64bits(wb)
}

// FuzzParseSpecBody holds the POST spec decoder to the encoding/json
// reference: for every body, both succeed or both fail, with the same
// Spec on success and the same error text on failure.
func FuzzParseSpecBody(f *testing.F) {
	for _, seed := range []string{
		quickSpec,
		`{}`,
		` { } `,
		`{"app":"tclosure","policy":"UPD","prim":"LLSC","cas":"INVs","ldex":true,"drop":false,"procs":64,"c":8,"a":2.5,"rounds":3,"size":12,"seed":18446744073709551615}`,
		"{\n\t\"app\" : \"msqueue\" ,\r\n \"c\":1, \"a\":1e1}\n",
		`{"app":"app"}`,
		`{"app":"counter"}`,
		`{"APP":"counter"}`,
		`{"ſeed":1}`,
		`{"Procs":4}`,
		`null`,
		`{"app":null}`,
		`{"procs":4,"procs":8}`,
		`{"procs":4,"procs":"x"}`,
		`{"app":"counter"}x`,
		`{"app":"counter"}{}`,
		`{"app":"counter",}`,
		`{"procs":1e2}`,
		`{"procs":1.0}`,
		`{"procs":-0}`,
		`{"procs":01}`,
		`{"procs":9223372036854775808}`,
		`{"seed":-1}`,
		`{"seed":18446744073709551616}`,
		`{"a":1e400}`,
		`{"a":-0}`,
		`{"a":1e-400}`,
		`{"app":"caf\xc3\xa9"}`,
		`{"app":"\xff"}`,
		`{"app":"a` + "\x01" + `"}`,
		`{"ldex":"true"}`,
		`{"ldex":tru}`,
		`{"bogus":1}`,
		`[]`,
		``,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req := &http.Request{Method: http.MethodPost, Body: io.NopCloser(bytes.NewReader(body))}
		got, err := parseSpecBody(req)
		want, werr := referenceSpec(body)
		switch {
		case (err == nil) != (werr == nil):
			t.Fatalf("body %q: err = %v, reference err = %v", body, err, werr)
		case err != nil:
			if err.Error() != "bad spec JSON: "+werr.Error() {
				t.Fatalf("body %q: err = %q, reference %q", body, err, werr)
			}
		case !sameSpec(got, want):
			t.Fatalf("body %q: spec = %+v, reference %+v", body, got, want)
		}
	})
}

// FuzzNormalizeKey checks that Normalize never panics on any spec, that
// it is idempotent, and that a canonical spec's Key is stable and equals
// the key its re-normalized form gets.
func FuzzNormalizeKey(f *testing.F) {
	f.Add("counter", "INV", "FAP", "INV", false, false, 16, 1, 1.0, 6, 12, uint64(0))
	f.Add("tclosure", "UPD", "LLSC", "INVs", true, true, 64, 64, 3.5, 256, 64, uint64(7))
	f.Add("msqueue", "UNC", "CAS", "INVd", false, true, 8, 1, 64.0, 1, 0, uint64(1))
	f.Add("", "", "", "", false, false, 0, 0, 0.0, 0, 0, uint64(0))
	f.Add("nope", "inv", "XADD", "INVx", false, false, -1, 99, math.NaN(), -5, 1, uint64(1))
	f.Add("counter", "INV", "FAP", "INV", false, false, 4, 1, math.Inf(1), 2, 0, uint64(0))
	f.Add("counter", "INV", "FAP", "INV", false, false, 4, 1, math.NaN(), 2, 0, uint64(0))
	f.Fuzz(func(t *testing.T, app, policy, prim, cas string, ldex, drop bool,
		procs, c int, a float64, rounds, size int, seed uint64) {
		sp := Spec{App: app, Policy: policy, Prim: prim, Variant: cas, LoadEx: ldex, Drop: drop,
			Procs: procs, Contention: c, WriteRun: a, Rounds: rounds, Size: size, Seed: seed}
		n, err := sp.Normalize()
		if err != nil {
			return
		}
		again, err := n.Normalize()
		if err != nil {
			t.Fatalf("Normalize(%+v) rejects its own canonical form: %v", n, err)
		}
		if !sameSpec(again, n) {
			t.Fatalf("Normalize is not idempotent: %+v -> %+v", n, again)
		}
		if k := n.Key(); k != n.Key() || k != again.Key() {
			t.Fatalf("Key of %+v is not stable", n)
		}
	})
}

// FuzzParsePlan feeds arbitrary bodies to the sweep plan decoder: it never
// panics, an accepted plan has 1..MaxSweepPoints points, every accepted
// point is a fixed point of Normalize, and every rejection carries one of
// the decoder's four error forms.
func FuzzParsePlan(f *testing.F) {
	for _, seed := range []string{
		`{"points":[` + quickSpec + `]}`,
		`{"points":[{},{"app":"tclosure","size":12},{"app":"msqueue","prim":"CAS","c":4,"a":2.5}]}`,
		`{"points":[{"app":"counter","policy":"UNC","procs":64,"c":64,"rounds":1,"seed":7}]}`,
		`{"points":[]}`,
		`{}`,
		`null`,
		`{"points":null}`,
		`{"points":[{}],"extra":1}`,
		`{"points":[{"bogus":1}]}`,
		`{"points":[{"app":"quicksort"}]}`,
		`{"points":[{"procs":65}]}`,
		`{"points":[{"c":0,"a":0.5}]}`,
		`{"points":[{}]}{"points":[{}]}`,
		`{"points":[{}]`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		specs, err := ParsePlan(bytes.NewReader(body))
		if err != nil {
			msg := err.Error()
			for _, prefix := range []string{"bad plan JSON: ", "empty plan: ", "plan has ", "point "} {
				if strings.HasPrefix(msg, prefix) {
					return
				}
			}
			t.Fatalf("rejection %q has none of ParsePlan's error forms", msg)
		}
		if len(specs) < 1 || len(specs) > MaxSweepPoints {
			t.Fatalf("accepted a plan of %d points", len(specs))
		}
		for i, sp := range specs {
			again, err := sp.Normalize()
			if err != nil || !sameSpec(again, sp) {
				t.Fatalf("point %d %+v is not a fixed point of Normalize: %+v, %v", i, sp, again, err)
			}
		}
	})
}
