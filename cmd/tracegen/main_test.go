package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

// A generated trace file reads back with the requests asked for.
func TestWritesReadableTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "msr.trc")
	runMain(t, "-family", "msr", "-objects", "1000", "-requests", "5000", "-o", path)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadBinary(f)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 5000 {
		t.Errorf("read back %d requests, want 5000", tr.Len())
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
