package report

import (
	"bytes"
	"strings"
	"testing"

	"dsm/internal/core"
	"dsm/internal/machine"
	"dsm/internal/proto"
)

func runSmall() *machine.Machine {
	cfg := core.DefaultConfig()
	cfg.Nodes = 4
	cfg.Mesh.Width, cfg.Mesh.Height = 2, 2
	m := machine.New(cfg)
	a := m.AllocSync(proto.PolicyINV)
	m.Run(func(p *machine.Proc) {
		for i := 0; i < 3; i++ {
			p.FetchAdd(a, 1)
		}
	})
	return m
}

func TestCollectGathersEverything(t *testing.T) {
	m := runSmall()
	r := Collect(m)
	if r.Procs != 4 {
		t.Fatalf("Procs = %d", r.Procs)
	}
	if r.Protocol.Requests == 0 {
		t.Fatal("no protocol requests collected")
	}
	if r.Network.Messages == 0 {
		t.Fatal("no network traffic collected")
	}
	if r.Memory.Accesses == 0 {
		t.Fatal("no memory accesses collected")
	}
	if r.Contention.Total() != 12 {
		t.Fatalf("contention samples = %d, want 12", r.Contention.Total())
	}
	if r.WriteRunTotal == 0 || r.WriteRunMean <= 0 {
		t.Fatal("write runs not collected")
	}
	if len(r.Chains) == 0 {
		t.Fatal("no chain classes collected")
	}
}

func TestChainsSortedAndNamed(t *testing.T) {
	r := Collect(runSmall())
	var prev string
	found := false
	for _, c := range r.Chains {
		if c.Class < prev {
			t.Fatalf("chains not sorted: %q after %q", c.Class, prev)
		}
		prev = c.Class
		if c.Class == "fetch_and_add/INV" {
			found = true
			if c.Count != 12 {
				t.Fatalf("fetch_and_add count = %d, want 12", c.Count)
			}
		}
	}
	if !found {
		t.Fatalf("fetch_and_add/INV class missing: %+v", r.Chains)
	}
}

func TestWriteTextRendersSections(t *testing.T) {
	var b bytes.Buffer
	Collect(runSmall()).WriteText(&b)
	out := b.String()
	for _, want := range []string{"protocol:", "network:", "memory:", "contention:", "write-runs:", "fetch_and_add/INV"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text report missing %q:\n%s", want, out)
		}
	}
}

// TestWriteJSONByteStable checks that a report encodes as one
// newline-terminated JSON document, and that encoding it again yields the
// same bytes.
func TestWriteJSONByteStable(t *testing.T) {
	m := runSmall()
	r := Collect(m)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	first := buf.String()
	if !strings.HasSuffix(first, "\n") {
		t.Fatal("WriteJSON output not newline-terminated")
	}
	// Byte-stable: encoding the same report again yields identical bytes.
	var again bytes.Buffer
	if err := r.WriteJSON(&again); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if again.String() != first {
		t.Fatalf("re-encode differs:\n%s\nvs\n%s", again.String(), first)
	}
}

func TestWriteJSONFieldOrder(t *testing.T) {
	m := runSmall()
	var buf bytes.Buffer
	if err := Collect(m).WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	out := buf.String()
	// Spot-check that the stable declaration order survives encoding.
	fields := []string{`"procs"`, `"protocol"`, `"network"`, `"memory"`,
		`"cache"`, `"contention"`, `"write_run_mean"`, `"proc_ops"`}
	last := -1
	for _, f := range fields {
		i := strings.Index(out, f)
		if i < 0 {
			t.Fatalf("field %s missing from %s", f, out)
		}
		if i < last {
			t.Fatalf("field %s out of order in %s", f, out)
		}
		last = i
	}
}
