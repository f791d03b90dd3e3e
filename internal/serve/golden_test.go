package serve

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/served_small.txt from the current code")

// goldenApps lists every app the spec accepts, in a fixed order so the
// golden file's line order does not depend on how apps are enumerated.
var goldenApps = []string{
	"counter", "tts", "mcs", "tclosure", "locusroute", "cholesky",
	"msqueue", "stack", "rcu", "tournament", "dissemination",
}

// goldenSpecs returns the canonical specs the served-bytes golden pins:
// every app under every primitive × policy at 8 processors and 3 rounds,
// with the no-contention pattern (a=1.5) and contention 4. Specs that
// normalize onto one key (the pattern fields of an app that ignores them)
// appear once.
func goldenSpecs(t *testing.T) []Spec {
	seen := map[string]bool{}
	var specs []Spec
	for _, app := range goldenApps {
		for _, prim := range []string{"FAP", "CAS", "LLSC"} {
			for _, policy := range []string{"INV", "UPD", "UNC"} {
				for _, pat := range []Spec{{Contention: 1, WriteRun: 1.5}, {Contention: 4}} {
					sp, err := Spec{
						App: app, Policy: policy, Prim: prim, Procs: 8, Rounds: 3, Size: 8,
						Contention: pat.Contention, WriteRun: pat.WriteRun,
					}.Normalize()
					if err != nil {
						t.Fatalf("%s %s %s: %v", app, policy, prim, err)
					}
					if k := sp.Key(); !seen[k] {
						seen[k] = true
						specs = append(specs, sp)
					}
				}
			}
		}
	}
	return specs
}

// TestServedBytesGolden pins Run(spec).Encode() byte for byte, one line per
// spec, for every app under every primitive × policy. It is the served
// counterpart of the figures goldens: any change to a workload, to the
// report, or to spec canonicalization shows up here as a diff. Regenerate
// after an intended change with `go test ./internal/serve -run
// TestServedBytesGolden -update` and review the diff.
func TestServedBytesGolden(t *testing.T) {
	var got bytes.Buffer
	for _, sp := range goldenSpecs(t) {
		b, err := Run(sp).Encode()
		if err != nil {
			t.Fatal(err)
		}
		got.Write(b)
	}
	const path = "testdata/served_small.txt"
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("served bytes diverge from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("served golden has %d lines, want %d", len(gl), len(wl))
	}
}
