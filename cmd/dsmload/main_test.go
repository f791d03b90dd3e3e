package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestBadFlagsExitWithUsage runs main in a child process: a flag no run
// can use must print the error and the usage text and exit 2, before any
// request goes out, not panic or start a run.
func TestBadFlagsExitWithUsage(t *testing.T) {
	if os.Getenv("DSMLOAD_MAIN") != "" {
		os.Args = append([]string{"dsmload"}, strings.Fields(os.Getenv("DSMLOAD_MAIN"))...)
		main()
		os.Exit(0)
	}
	for _, tc := range []struct{ args, want string }{
		{"-specs 0", "-specs 0 below 1"},
		{"-specs -3", "-specs -3 below 1"},
		{"-c 0", "-c 0 below 1"},
		{"-sweep -batch 0", "-batch 0 out of range 1-1024"},
		{"-sweep -batch 1025", "-batch 1025 out of range 1-1024"},
		{"-dup -0.1", "-dup -0.1 out of range 0-1"},
		{"-dup 1.5", "-dup 1.5 out of range 0-1"},
		{"-dup NaN", "-dup NaN out of range 0-1"},
		{"-d 0s", "-d 0s not positive"},
		{"-d -1s", "-d -1s not positive"},
		{"-zipf 1", "-zipf 1 needs s > 1"},
		{"-zipf 0.5", "-zipf 0.5 needs s > 1"},
		{"-zipf NaN", "-zipf NaN needs s > 1"},
	} {
		// An unroutable address: a flag check that let the run start would
		// fail on the warm-up probe with exit 1, not 2.
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadFlagsExitWithUsage$")
		cmd.Env = append(os.Environ(), "DSMLOAD_MAIN=-addr http://127.0.0.1:1 "+tc.args)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Fatalf("dsmload %s: err %v, want exit status 2; stderr:\n%s", tc.args, err, stderr.String())
		}
		out := stderr.String()
		if !strings.Contains(out, tc.want) || !strings.Contains(out, "Usage of") ||
			strings.Contains(out, "panic:") || stdout.Len() != 0 {
			t.Fatalf("dsmload %s: stdout %q, stderr:\n%s", tc.args, stdout.String(), out)
		}
	}
}
