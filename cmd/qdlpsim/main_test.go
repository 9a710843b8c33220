package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// Every registered policy replays a small trace and reports a row.
func TestAllPolicies(t *testing.T) {
	out := runMain(t, "-policy", "all", "-family", "msr", "-objects", "1000", "-requests", "10000")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// trace line, header, rule, one row per policy
	if !strings.HasPrefix(lines[0], "trace msr-1: 10000 requests, ") || len(lines) != 3+len(core.Names()) {
		t.Fatalf("want a row for each of %d policies:\n%s", len(core.Names()), out)
	}
}

// runMain runs main with args as its command line and its standard output
// sent to a file, and returns what it printed.
func runMain(t *testing.T, args ...string) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout, argv := os.Stdout, os.Args
	os.Stdout, os.Args = f, append([]string{filepath.Base(t.Name())}, args...)
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	defer func() { os.Stdout, os.Args = stdout, argv }()
	main()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
