package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestBadScaleFlagsExitWithUsage runs main in a child process: a -procs,
// -rounds or -tcsize no run can use, or an argument that is not a flag
// (which would end flag parsing and hide the flags after it), must print
// the error and the usage text and exit 2, not panic or print tables.
func TestBadScaleFlagsExitWithUsage(t *testing.T) {
	if os.Getenv("FIGURES_MAIN") != "" {
		os.Args = append([]string{"figures"}, strings.Fields(os.Getenv("FIGURES_MAIN"))...)
		main()
		os.Exit(0)
	}
	for _, tc := range []struct{ args, want string }{
		{"-table1 -procs 65", "procs 65 out of range 1-64"},
		{"-fig3 -rounds 0", "rounds 0 below 1"},
		{"-fig3 -rounds -1", "rounds -1 below 1"},
		{"-tceff -tcsize 0", "size 0 below 2"},
		{"-tceff -tcsize 1", "size 1 below 2"},
		{"-table1 x -procs 1000", `unexpected argument "x"`},
		{"-table1 x", `unexpected argument "x"`},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadScaleFlagsExitWithUsage$")
		cmd.Env = append(os.Environ(), "FIGURES_MAIN="+tc.args)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Fatalf("figures %s: err %v, want exit status 2; stderr:\n%s", tc.args, err, stderr.String())
		}
		out := stderr.String()
		if !strings.Contains(out, tc.want) || !strings.Contains(out, "Usage of") ||
			strings.Contains(out, "panic:") || stdout.Len() != 0 {
			t.Fatalf("figures %s: stdout %q, stderr:\n%s", tc.args, stdout.String(), out)
		}
	}
}
