package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestBadFlagsExitWithUsage runs main in a child process: a negative
// -timeout or -drain, or an argument that is not a flag, must print the
// error and the usage text and exit 2 before listening, not fall back to a
// default or ignore the flags after a stray argument.
func TestBadFlagsExitWithUsage(t *testing.T) {
	if os.Getenv("DSMROUTER_MAIN") != "" {
		os.Args = append([]string{"dsmrouter"}, strings.Fields(os.Getenv("DSMROUTER_MAIN"))...)
		main()
		os.Exit(0)
	}
	for _, tc := range []struct{ args, want string }{
		{"stray", `unexpected argument "stray"`},
		{"-backends http://127.0.0.1:1 stray -timeout -1s", `unexpected argument "stray"`},
		{"-timeout -1s", "-timeout -1s negative"},
		{"-drain -1s", "-drain -1s negative"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadFlagsExitWithUsage$")
		cmd.Env = append(os.Environ(), "DSMROUTER_MAIN=-addr 127.0.0.1:0 "+tc.args)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Fatalf("dsmrouter %s: err %v, want exit status 2; stderr:\n%s", tc.args, err, stderr.String())
		}
		out := stderr.String()
		if !strings.Contains(out, tc.want) || !strings.Contains(out, "Usage of") ||
			strings.Contains(out, "listening") || stdout.Len() != 0 {
			t.Fatalf("dsmrouter %s: stdout %q, stderr:\n%s", tc.args, stdout.String(), out)
		}
	}
}
