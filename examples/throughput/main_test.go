package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/concurrent"
)

// The program prints timings, so only the shape of its output is pinned:
// one row per cache and goroutine count, each with a positive rate and a
// hit ratio in [0, 1].
func TestOutput(t *testing.T) {
	lines := strings.Split(runMain(t), "\n")
	if !strings.HasPrefix(lines[0], "GOMAXPROCS=") {
		t.Fatalf("first line %q", lines[0])
	}
	var rows []string
	for _, line := range lines {
		if strings.HasPrefix(line, "concurrent-") {
			rows = append(rows, line)
		}
	}
	if want := 4 * len(concurrent.Names()); len(rows) != want {
		t.Fatalf("%d rows, want %d:\n%s", len(rows), want, strings.Join(lines, "\n"))
	}
	for _, row := range rows {
		f := strings.Fields(row) // cache goroutines Mops/s hit-ratio
		if len(f) != 4 {
			t.Fatalf("row %q", row)
		}
		rate, err1 := strconv.ParseFloat(f[2], 64)
		hit, err2 := strconv.ParseFloat(f[3], 64)
		if err1 != nil || err2 != nil || rate <= 0 || hit < 0 || hit > 1 {
			t.Errorf("row %q: rate %v, hit ratio %v", row, rate, hit)
		}
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
