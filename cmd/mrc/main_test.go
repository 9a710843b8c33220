package main

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Each policy's curve is printed at every requested size, as miss ratios
// in [0, 1].
func TestCurves(t *testing.T) {
	out := runMain(t, "-objects", "1000", "-requests", "10000", "-points", "4", "-policies", "lru,fifo,qd-lp-fifo")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// trace line, header, rule, one row per size
	if len(lines) != 3+4 || strings.Join(strings.Fields(lines[1]), " ") != "size lru fifo qd-lp-fifo" {
		t.Fatalf("table shape:\n%s", out)
	}
	for _, row := range lines[3:] {
		for _, f := range strings.Fields(row)[1:] {
			if r, err := strconv.ParseFloat(f, 64); err != nil || r < 0 || r > 1 {
				t.Errorf("row %q: miss ratio %q", row, f)
			}
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

// -sample turns every policy's curve, lru included, into SHARDS-sampled
// miniature simulations, labelled as such.
func TestSampledCurves(t *testing.T) {
	out := runMain(t, "-objects", "1000", "-requests", "10000", "-points", "3", "-policies", "lru,qd-lp-fifo", "-sample", "0.5")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3+3 || strings.Join(strings.Fields(lines[1]), " ") != "size lru~shards qd-lp-fifo~shards" {
		t.Fatalf("table shape:\n%s", out)
	}
}
