package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain runs the command itself when a test re-executes the test
// binary with PENELOPE_MAIN=1, so tests can check its exit status.
func TestMain(m *testing.M) {
	if os.Getenv("PENELOPE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// penelope runs the command with args and returns its exit status and
// combined output.
func penelope(t *testing.T, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PENELOPE_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, string(out)
	case errors.As(err, &exit) && ctx.Err() == nil:
		return exit.ExitCode(), string(out)
	}
	t.Fatalf("penelope %s: %v", strings.Join(args, " "), err)
	return 0, ""
}

// TestStrayArgumentsRefused checks that run and serve refuse a
// positional argument with a usage error (exit 2) before doing any
// work, while the same flags alone still run.
func TestStrayArgumentsRefused(t *testing.T) {
	for _, args := range [][]string{
		{"run", "-experiment", "fig1", "nonsense"},
		{"run", "table1"},
		{"-experiment", "fig1", "nonsense"},
		{"run", "-json", "fig1", "-experiment", "table1"},
		{"serve", "-addr", "127.0.0.1:0", "junk"},
	} {
		code, out := penelope(t, args...)
		if code != 2 || !strings.Contains(out, "unexpected argument") {
			t.Errorf("penelope %s: exit %d, output %q; want exit 2 naming the unexpected argument",
				strings.Join(args, " "), code, out)
		}
	}
	if code, out := penelope(t, "run", "-experiment", "table1"); code != 0 || !strings.Contains(out, "Table 1") {
		t.Errorf("penelope run -experiment table1: exit %d, output %q", code, out)
	}
}
