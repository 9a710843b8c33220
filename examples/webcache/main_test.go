package main

import (
	"os"
	"path/filepath"
	"testing"
)

// The program prints the same bytes on every run, pinned in
// testdata/stdout.golden. After an intended change, regenerate it with
//
//	go run ./examples/webcache > examples/webcache/testdata/stdout.golden
func TestOutput(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "stdout.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := runMain(t); got != string(want) {
		t.Errorf("output differs from testdata/stdout.golden:\n%s", got)
	}
}

// runMain runs main with its standard output sent to a file and returns
// what it printed.
func runMain(t *testing.T) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = stdout }()
	main()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
