package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"dsm/internal/core"
	"dsm/internal/exper"
	"dsm/internal/mesh"
	"dsm/internal/proto"
	"dsm/internal/report"
	"dsm/internal/sim"
	"dsm/internal/stats"
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
// the key its re-normalized form gets. Every fuzzed write-run, canonical
// or not, must also render in the key text as the shortest 'g' form does.
func FuzzNormalizeKey(f *testing.F) {
	f.Add("counter", "INV", "FAP", "INV", false, false, 16, 1, 1.0, 6, 12, uint64(0))
	f.Add("tclosure", "UPD", "LLSC", "INVs", true, true, 64, 64, 3.5, 256, 64, uint64(7))
	f.Add("msqueue", "UNC", "CAS", "INVd", false, true, 8, 1, 64.0, 1, 0, uint64(1))
	f.Add("", "", "", "", false, false, 0, 0, 0.0, 0, 0, uint64(0))
	f.Add("nope", "inv", "XADD", "INVx", false, false, -1, 99, math.NaN(), -5, 1, uint64(1))
	f.Add("counter", "INV", "FAP", "INV", false, false, 4, 1, math.Inf(1), 2, 0, uint64(0))
	f.Add("counter", "INV", "FAP", "INV", false, false, 4, 1, math.NaN(), 2, 0, uint64(0))
	for _, a := range []float64{0, 1, 64, 1.5} {
		f.Add("counter", "INV", "FAP", "INV", false, false, 4, 1, a, 2, 0, uint64(0))
	}
	f.Fuzz(func(t *testing.T, app, policy, prim, cas string, ldex, drop bool,
		procs, c int, a float64, rounds, size int, seed uint64) {
		if got, want := appendWriteRun(nil, a), strconv.AppendFloat(nil, a, 'g', -1, 64); string(got) != string(want) {
			t.Fatalf("appendWriteRun(%v) = %q, AppendFloat 'g' = %q", a, got, want)
		}
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

// FuzzSpecAppendJSON holds the canonical JSON, which the router forwards
// and the server's cache is keyed by, to encoding/json and to its own
// decode: for every spec Normalize accepts, AppendJSON of the normalized
// form n equals json.Marshal of it byte for byte, fits specJSONMax, and is
// a fixed point — parseSpecBytes accepts it, and normalizing the result
// gives n back, whose AppendJSON is the same bytes. That fixed point is
// what lets the server answer a canonical POST body from its raw bytes.
func FuzzSpecAppendJSON(f *testing.F) {
	for i, app := range exper.AppNames() {
		a := [...]float64{1, 1.5, 10, 64}[i%4]
		f.Add(app, "INV", "FAP", "INV", false, false, 16, 1, a, 6, 12, uint64(0))
		f.Add(app, "UPD", "CAS", "INVd", true, true, 64, 1, a, 256, 64, uint64(18446744073709551615))
	}
	f.Add("counter", "UNC", "LLSC", "INVs", true, false, 1, 1, 1.0000000000000002, 1, 2, uint64(1))
	f.Add("", "", "", "", false, false, 0, 0, 0.0, 0, 0, uint64(0))
	f.Fuzz(func(t *testing.T, app, policy, prim, cas string, ldex, drop bool,
		procs, c int, a float64, rounds, size int, seed uint64) {
		sp := Spec{App: app, Policy: policy, Prim: prim, Variant: cas, LoadEx: ldex, Drop: drop,
			Procs: procs, Contention: c, WriteRun: a, Rounds: rounds, Size: size, Seed: seed}
		n, err := sp.Normalize()
		if err != nil {
			return
		}
		want, err := json.Marshal(n)
		if err != nil {
			t.Fatalf("json.Marshal(%+v): %v", n, err)
		}
		if got := n.AppendJSON([]byte("x")); string(got) != "x"+string(want) {
			t.Fatalf("AppendJSON(%+v) = %s, json.Marshal = %s", n, got[1:], want)
		}
		if len(want) > specJSONMax {
			t.Fatalf("AppendJSON(%+v) is %d bytes, over specJSONMax %d", n, len(want), specJSONMax)
		}
		back, err := parseSpecBytes(want)
		if err != nil {
			t.Fatalf("parseSpecBytes(%s): %v", want, err)
		}
		if back, err = back.Normalize(); err != nil || !sameSpec(back, n) {
			t.Fatalf("%s parses and normalizes to %+v, %v; want %+v", want, back, err, n)
		}
		if again := back.AppendJSON(nil); string(again) != string(want) {
			t.Fatalf("%s round-trips to %s", want, again)
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

// chainClassNames returns every chain class name the protocol records, as
// a fresh system's recorder renders them.
func chainClassNames() []string {
	cfg := core.DefaultConfig()
	eng := sim.NewEngine()
	rec := core.NewSystem(eng, mesh.New(eng, cfg.Mesh), cfg).Chains()
	for op := 0; op < proto.NumOps; op++ {
		for pol := 0; pol < proto.NumPolicies; pol++ {
			rec.RecordAt(op, pol, 1)
		}
	}
	var names []string
	for class := range rec.All() {
		names = append(names, class)
	}
	return names
}

// FuzzOutcomeAppendJSON holds the served outcome's encoder to
// encoding/json: for an outcome built from fuzzed counters, floats (tiny,
// huge, negative zero, NaN and infinities among them), a contention
// histogram and a set of chain summaries under the protocol's class names,
// AppendJSON appends exactly json.Marshal's bytes, and Encode adds one
// newline. Where encoding/json fails (a NaN or infinite float), AppendJSON
// fails with the same text. It also pins the key as 64 lowercase hex
// digits, which the encoder writes without escaping.
func FuzzOutcomeAppendJSON(f *testing.F) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	f.Add(uint8(0), uint64(0), uint64(143), uint64(4), 35.75, uint64(0), 1.3333333333333333, 1.5, []byte{1, 4}, []byte{7}, true)
	f.Add(uint8(3), uint64(7), uint64(845), uint64(12), 70.41666666666667, uint64(1<<20+5), 1.0, 3.1666666666666665, []byte{1, 3, 2, 3, 3, 3, 4, 3}, []byte{0, 9, 30}, true)
	f.Add(uint8(5), uint64(1), uint64(0), uint64(0), 0.0, uint64(2), 0.0, 0.0, []byte{}, []byte{}, true)
	f.Add(uint8(1), uint64(2), uint64(1), uint64(1), 1e-7, uint64(3), 1e21, 5e-324, []byte{0, 0}, []byte{1, 2}, true)
	f.Add(uint8(2), uint64(3), uint64(9), uint64(9), 1e-6, uint64(4), 999999999999999900000.0, -1.5e-300, []byte{255}, []byte{3}, true)
	f.Add(uint8(4), uint64(4), uint64(9), uint64(9), negZero, uint64(5), negZero, negZero, []byte{69, 255}, []byte{4, 5}, true)
	f.Add(uint8(6), uint64(5), uint64(9), uint64(9), nan, uint64(6), 1.0, 1.0, []byte{1, 1}, []byte{}, true)
	f.Add(uint8(7), uint64(6), uint64(9), uint64(9), 2.0, uint64(7), inf, 1.0, []byte{1, 1}, []byte{}, true)
	f.Add(uint8(8), uint64(7), uint64(9), uint64(9), 2.0, uint64(8), 1.0, -inf, []byte{1, 1}, []byte{6}, true)
	f.Add(uint8(9), uint64(8), uint64(18446744073709551615), uint64(18446744073709551615), -2.5e-8, uint64(18446744073709551615), 1.0, 1.0, []byte{}, []byte{}, false)
	names := chainClassNames()
	apps := exper.AppNames()
	f.Fuzz(func(t *testing.T, app uint8, seed, elapsed, ops uint64, avg float64, extra uint64,
		wrMean, chainMean float64, bins, chains []byte, withReport bool) {
		sp, err := Spec{App: apps[int(app)%len(apps)], Seed: seed}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		o := &Outcome{Spec: sp, Key: sp.Key()}
		if len(o.Key) != 64 || strings.Trim(o.Key, "0123456789abcdef") != "" {
			t.Fatalf("key %q is not 64 lowercase hex digits", o.Key)
		}
		o.Elapsed = sim.Time(elapsed)
		o.Ops = ops
		o.AvgCycles = avg
		o.Retries = extra % 3 // zero a third of the time: omitempty
		o.TornReads = extra / 3 % 2
		o.Work = extra >> 8
		var wantBins []byte // encoding/json's rendering of the contention bins
		if withReport {
			rng := rand.New(rand.NewPCG(elapsed, extra))
			count := func() uint64 { // zero, small or any value, a third each
				switch rng.IntN(3) {
				case 0:
					return 0
				case 1:
					return rng.Uint64N(1000)
				}
				return rng.Uint64()
			}
			r := &report.Report{
				Procs: int(int8(extra)),
				Protocol: core.Counters{Requests: count(), LocalHits: count(), Naks: count(), Retries: count(),
					Invals: count(), Updates: count(), Writebacks: count(), SCFailLocal: count()},
				Network: mesh.Stats{Messages: count(), LocalMsgs: count(), Flits: count(), HopsTotal: count(),
					InjectWait: count(), EjectWait: count(), LinkWait: count()},
				WriteRunMean:  wrMean,
				WriteRunTotal: count(),
				ProcOps:       count(),
				MemoryCycles:  count(),
				ComputeCycles: count(),
				BarrierCycles: count(),
			}
			r.Memory.Accesses, r.Memory.QueueWait = count(), count()
			r.Cache.Evictions, r.Cache.DirtyEvictions = count(), count()
			if len(bins) == 0 || bins[0] != 255 { // a leading 255 leaves the histogram nil
				r.Contention = stats.NewHistogram()
				for i := 0; i+1 < len(bins); i += 2 {
					r.Contention.AddN(int(bins[i]%70), uint64(bins[i+1]))
				}
				type bin struct {
					V int    `json:"v"`
					N uint64 `json:"n"`
				}
				ref := []bin{}
				for v := 0; v <= r.Contention.Max(); v++ {
					if n := r.Contention.Count(v); n != 0 {
						ref = append(ref, bin{v, n})
					}
				}
				wantBins, _ = json.Marshal(ref)
			}
			for i, c := range chains[:min(len(chains), 40)] {
				r.Chains = append(r.Chains, report.ChainSummary{
					Class: names[int(c)%len(names)], Count: count(),
					Mean: chainMean * float64(i), Max: int(c) - 8,
				})
			}
			o.Report = r
		}

		want, jerr := json.Marshal(o)
		got, err := o.AppendJSON([]byte("x"))
		if jerr != nil {
			if err == nil || err.Error() != jerr.Error() {
				t.Fatalf("json.Marshal fails with %q, AppendJSON with %v", jerr, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("AppendJSON: %v; json.Marshal gives %s", err, want)
		}
		// encoding/json sees no exported field in a Histogram, so it
		// renders one as {}: put the bins in its place.
		if wantBins != nil {
			want = bytes.Replace(want, []byte(`"contention":{}`), append([]byte(`"contention":`), wantBins...), 1)
		}
		if string(got) != "x"+string(want) {
			t.Fatalf("AppendJSON =\n%s\njson.Marshal =\n%s", got[1:], want)
		}
		if enc, err := o.Encode(); err != nil || string(enc) != string(want)+"\n" {
			t.Fatalf("Encode = %s, %v; want AppendJSON's bytes and a newline", enc, err)
		}
	})
}
