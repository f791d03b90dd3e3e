package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"

	"dsm/internal/exper"
	"dsm/internal/locks"
	"dsm/internal/proto"
)

func TestParseBarAcceptsKnownValues(t *testing.T) {
	bar, err := parseBar("UPD", "CAS", "INVd", true, true)
	if err != nil {
		t.Fatalf("parseBar: %v", err)
	}
	if bar.Policy != proto.PolicyUPD || bar.Prim != locks.PrimCAS ||
		bar.Variant != proto.CASDeny || !bar.LoadEx || !bar.Drop {
		t.Fatalf("parseBar = %+v", bar)
	}
}

func TestParseBarRejectsUnknownValues(t *testing.T) {
	cases := []struct {
		policy, prim, variant string
		wantErr               string
	}{
		{"MESI", "FAP", "INV", "unknown policy"},
		{"inv", "FAP", "INV", "unknown policy"}, // case-sensitive, no silent fallback
		{"INV", "XADD", "INV", "unknown primitive"},
		{"INV", "cas", "INV", "unknown primitive"},
		{"INV", "CAS", "INVx", "unknown CAS variant"},
		{"", "", "", "unknown policy"},
	}
	for _, tc := range cases {
		_, err := parseBar(tc.policy, tc.prim, tc.variant, false, false)
		if err == nil {
			t.Errorf("parseBar(%q,%q,%q) accepted", tc.policy, tc.prim, tc.variant)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("parseBar(%q,%q,%q) error = %v, want %q", tc.policy, tc.prim, tc.variant, err, tc.wantErr)
		}
	}
}

func TestValidateApp(t *testing.T) {
	for _, app := range []string{
		"counter", "tts", "mcs", "tclosure", "locusroute", "cholesky",
		"msqueue", "stack", "rcu", "tournament", "dissemination",
	} {
		if _, err := exper.ParseApp(app); err != nil {
			t.Errorf("ParseApp(%q) = %v", app, err)
		}
	}
	for _, app := range []string{"", "Counter", "fib", "barnes"} {
		if _, err := exper.ParseApp(app); err == nil {
			t.Errorf("ParseApp(%q) accepted", app)
		}
	}
}

func TestCheckProcs(t *testing.T) {
	for _, tc := range []struct {
		procs   int
		wantErr string
	}{
		{1, ""},
		{8, ""},
		{64, ""},
		{65, "procs 65 out of range 1-64"},
		{0, "procs 0 out of range 1-64"},
		{-3, "procs -3 out of range 1-64"},
	} {
		err := exper.CheckProcs(tc.procs)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("CheckProcs(%d) = %v", tc.procs, err)
		case tc.wantErr != "" && (err == nil || err.Error() != tc.wantErr):
			t.Errorf("CheckProcs(%d) = %v, want %q", tc.procs, err, tc.wantErr)
		}
	}
}

// TestCheckScaleFlags pins the lower bounds of the scale and pattern
// flags, which serve enforces too beside its upper cost limits.
func TestCheckScaleFlags(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name    string
		err     error
		wantErr string
	}{
		{"c=1", exper.CheckContention(1, 64), ""},
		{"c=procs", exper.CheckContention(64, 64), ""},
		{"c=0", exper.CheckContention(0, 64), "contention 0 out of range 1-64 (procs)"},
		{"c>procs", exper.CheckContention(65, 64), "contention 65 out of range 1-64 (procs)"},
		{"c>small procs", exper.CheckContention(5, 4), "contention 5 out of range 1-4 (procs)"},
		{"rounds=1", exper.CheckRounds(1), ""},
		{"rounds=0", exper.CheckRounds(0), "rounds 0 below 1"},
		{"rounds<0", exper.CheckRounds(-2), "rounds -2 below 1"},
		{"size=2", exper.CheckSize(2), ""},
		{"size=1", exper.CheckSize(1), "size 1 below 2"},
		{"size=0", exper.CheckSize(0), "size 0 below 2"},
		{"size<0", exper.CheckSize(-5), "size -5 below 2"},
		{"a=1", exper.CheckWriteRun(1), ""},
		{"a=2.5", exper.CheckWriteRun(2.5), ""},
		{"a=0.5", exper.CheckWriteRun(0.5), "write-run 0.5 below 1"},
		{"a=-inf", exper.CheckWriteRun(math.Inf(-1)), "write-run -Inf below 1"},
		{"a=NaN", exper.CheckWriteRun(nan), "write-run NaN below 1"},
	} {
		switch {
		case tc.wantErr == "" && tc.err != nil:
			t.Errorf("%s: %v", tc.name, tc.err)
		case tc.wantErr != "" && (tc.err == nil || tc.err.Error() != tc.wantErr):
			t.Errorf("%s: %v, want %q", tc.name, tc.err, tc.wantErr)
		}
	}
}

// TestOutOfRangeProcsExitsWithUsage runs main in a child process: an
// out-of-range -procs, a scale or pattern flag below its lower bound, a
// negative -trace, or an argument that is not a flag, must print the error
// and the usage text and exit 2, not panic.
func TestOutOfRangeProcsExitsWithUsage(t *testing.T) {
	if os.Getenv("DSMSIM_MAIN") != "" {
		os.Args = append([]string{"dsmsim"}, strings.Fields(os.Getenv("DSMSIM_MAIN"))...)
		main()
		os.Exit(0)
	}
	for _, tc := range []struct{ args, want string }{
		{"-procs 65", "out of range 1-64"},
		{"-procs 0", "out of range 1-64"},
		{"-procs -3", "out of range 1-64"},
		{"-app tclosure -size 0", "size 0 below 2"},
		{"-app tclosure -size -4", "size -4 below 2"},
		{"-c 0", "contention 0 out of range 1-64 (procs)"},
		{"-c 65", "contention 65 out of range 1-64 (procs)"},
		{"-procs 4 -c 5", "contention 5 out of range 1-4 (procs)"},
		{"-rounds 0", "rounds 0 below 1"},
		{"-a 0", "write-run 0 below 1"},
		{"-a NaN", "write-run NaN below 1"},
		{"-app counter -procs 4 -rounds 2 -trace -5", "trace -5 below 0"},
		{"-app tts extra -procs 1000", `unexpected argument "extra"`},
		{"-dump-protocol extra", `unexpected argument "extra"`},
	} {
		args := tc.args
		cmd := exec.Command(os.Args[0], "-test.run=^TestOutOfRangeProcsExitsWithUsage$")
		cmd.Env = append(os.Environ(), "DSMSIM_MAIN="+args)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Fatalf("dsmsim %s: err %v, want exit status 2; stderr:\n%s", args, err, stderr.String())
		}
		out := stderr.String()
		if !strings.Contains(out, tc.want) || !strings.Contains(out, "Usage of") ||
			strings.Contains(out, "panic:") {
			t.Fatalf("dsmsim %s stderr:\n%s", args, out)
		}
	}
}

// TestSummaryLabels runs main in a child process for each shape of
// summary line and checks its labels: the barrier apps count counter
// increments (c per round), not barrier episodes, and average per round.
func TestSummaryLabels(t *testing.T) {
	if os.Getenv("DSMSIM_MAIN") != "" {
		os.Args = append([]string{"dsmsim"}, strings.Fields(os.Getenv("DSMSIM_MAIN"))...)
		main()
		os.Exit(0)
	}
	const pat = " -procs 8 -c 4 -rounds 3"
	for _, tc := range []struct{ args, prefix, suffix string }{
		{"-app tournament" + pat, "increments: 12, elapsed: ", " cycles, avg cycles/barrier round: "},
		{"-app dissemination" + pat, "increments: 12, elapsed: ", " cycles, avg cycles/barrier round: "},
		{"-app counter" + pat, "updates: 12, elapsed: ", " cycles, avg cycles/update: "},
		{"-app stack" + pat, "ops: 24, elapsed: ", ", avg cycles/op: "},
		{"-app rcu" + pat, "reads+updates: ", ", avg cycles/op: "},
		{"-app cholesky -procs 4", "elapsed: ", " cycles, columns factored: 12"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestSummaryLabels$")
		cmd.Env = append(os.Environ(), "DSMSIM_MAIN="+tc.args)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("dsmsim %s: %v", tc.args, err)
		}
		line, _, _ := strings.Cut(string(out), "\n")
		if !strings.HasPrefix(line, tc.prefix) || !strings.Contains(line, tc.suffix) {
			t.Errorf("dsmsim %s summary %q, want %q...%q", tc.args, line, tc.prefix, tc.suffix)
		}
	}
}

// TestDumpProtocolGolden pins the -dump-protocol output: the tables are
// the protocol, so any change to them must show up as a reviewed golden
// diff. Regenerate with:
//
//	go run ./cmd/dsmsim -dump-protocol > cmd/dsmsim/testdata/protocol.txt
func TestDumpProtocolGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := proto.WriteTables(&buf); err != nil {
		t.Fatalf("WriteTables: %v", err)
	}
	checkGolden(t, "protocol dump", "testdata/protocol.txt", buf.Bytes())
}

// checkGolden fails t at the first line where got differs from the golden
// file, or on a differing length.
func checkGolden(t *testing.T, what, golden string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s diverges from golden at line %d:\n got: %q\nwant: %q", what, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s length %d lines, golden %d lines", what, len(gl), len(wl))
}

// TestTraceGolden runs main in a child process and pins its -trace output:
// the report, then the last 40 protocol events of an MCS run. MCS waits in
// SpinWhile, so the golden also holds the rule that a traced spin does not
// park: each of its loads is issued and completed as an event of its own.
// Regenerate with:
//
//	go run ./cmd/dsmsim -app mcs -procs 4 -c 4 -rounds 2 -trace 40 > cmd/dsmsim/testdata/trace.txt
func TestTraceGolden(t *testing.T) {
	if os.Getenv("DSMSIM_MAIN") != "" {
		os.Args = append([]string{"dsmsim"}, strings.Fields(os.Getenv("DSMSIM_MAIN"))...)
		main()
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestTraceGolden$")
	cmd.Env = append(os.Environ(), "DSMSIM_MAIN=-app mcs -procs 4 -c 4 -rounds 2 -trace 40")
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("dsmsim: %v", err)
	}
	checkGolden(t, "trace output", "testdata/trace.txt", got)
}
