package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Every experiment runs at a small scale and prints its section.
func TestAllExperiments(t *testing.T) {
	out := runMain(t, "-exp", "all", "-seeds", "1", "-objects", "1000", "-requests", "10000")
	for _, section := range []string{"table1", "fig2", "fig3+table2", "fig5", "ablation"} {
		if !strings.Contains(out, "=== "+section+" ===\n") {
			t.Errorf("no %s section in:\n%s", section, out)
		}
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
