package serve

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"dsm/internal/exper"
)

// TestWireNamesDecodeWithoutAllocating checks that every name the spec
// accepts is a constant scanName returns, and that a name no parse helper
// accepts is not interned.
func TestWireNamesDecodeWithoutAllocating(t *testing.T) {
	names := append(exper.AppNames(), "INV", "UPD", "UNC", "FAP", "CAS", "LLSC", "INVd", "INVs")
	for _, name := range names {
		quoted := []byte(`"` + name + `"`)
		var got string
		if n := testing.AllocsPerRun(10, func() { got, _, _ = scanName(quoted, 0) }); n != 0 || got != name {
			t.Errorf("scanName(%s) = %q with %.0f allocs, want %q with 0", quoted, got, n, name)
		}
	}
	for _, junk := range []string{"", "Counter", "inv", "fib"} {
		if n, ok := exper.WireName([]byte(junk)); ok {
			t.Errorf("WireName(%q) = %q, want no wire name", junk, n)
		}
	}
}

// TestSpecBodyLimit pins the POST body bound to http.MaxBytesReader's: a
// body of exactly 64 KiB decodes, one byte more fails with its error.
func TestSpecBodyLimit(t *testing.T) {
	parse := func(body string) (Spec, error) {
		r := &http.Request{Method: http.MethodPost, Body: io.NopCloser(strings.NewReader(body))}
		return parseSpecBody(r)
	}
	spec := `{"procs":4}`
	fits := spec + strings.Repeat(" ", maxSpecBody-len(spec))
	if sp, err := parse(fits); err != nil || sp.Procs != 4 {
		t.Fatalf("%d-byte body: spec %+v, err %v", len(fits), sp, err)
	}
	_, err := parse(fits + " ")
	_, werr := io.ReadAll(http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(fits+" ")), maxSpecBody))
	if want := "bad spec JSON: " + werr.Error(); err == nil || err.Error() != want {
		t.Fatalf("%d-byte body: err %v, want %q", len(fits)+1, err, want)
	}
}
