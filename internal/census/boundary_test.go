package census

import (
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The paper layer is what reproduces the paper: traces, workloads, the
// policies and the engine under them, the simulator, the experiments and
// their commands. The systems layer serves and measures caches. A paper
// package that imports a systems package, directly or through another
// package, ties the paper's results to code they do not need.
var (
	paperLayer = []string{
		"internal/trace", "internal/workload", "internal/core", "internal/slab",
		"internal/ghost", "internal/policy/", "internal/sim", "internal/experiments",
		"internal/evict", "cmd/experiments", "cmd/qdlpsim", "cmd/tracegen",
	}
	systemsLayer = []string{
		"internal/concurrent", "internal/server", "internal/cluster", "internal/obs",
		"internal/metrics", "internal/overload", "internal/telemetry", "internal/mrc",
		"internal/chaos",
	}
)

// inLayer reports whether import path ip is one of layer's packages or,
// for an entry ending in "/", below it.
func inLayer(ip string, layer []string) bool {
	for _, p := range layer {
		if ip == module+"/"+strings.TrimSuffix(p, "/") || strings.HasSuffix(p, "/") && strings.HasPrefix(ip, module+"/"+p) {
			return true
		}
	}
	return false
}

// TestPaperLayerImportsNoSystemsPackage walks each paper-layer package's
// non-test imports within the module, transitively, and fails on every
// systems-layer package it reaches, naming the import chain.
func TestPaperLayerImportsNoSystemsPackage(t *testing.T) {
	pkgs := loadModule(t)
	imports := map[string][]string{}
	for ip, p := range pkgs {
		for _, f := range p.files {
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); pkgs[path] != nil {
					imports[ip] = append(imports[ip], path)
				}
			}
		}
	}
	var roots []string
	for ip := range pkgs {
		if inLayer(ip, paperLayer) {
			roots = append(roots, ip)
		}
	}
	if len(roots) < len(paperLayer) {
		t.Fatalf("found %d paper-layer packages, fewer than the %d entries naming them", len(roots), len(paperLayer))
	}
	sort.Strings(roots)
	for _, root := range roots {
		via := map[string]string{root: ""} // package → the package that imported it
		queue := []string{root}
		for len(queue) > 0 {
			ip := queue[0]
			queue = queue[1:]
			if inLayer(ip, systemsLayer) {
				chain := ip
				for p := via[ip]; p != ""; p = via[p] {
					chain = p + " → " + chain
				}
				t.Errorf("paper-layer %s reaches systems-layer %s: %s", root, ip, chain)
				continue
			}
			for _, next := range imports[ip] {
				if _, seen := via[next]; !seen {
					via[next] = ip
					queue = append(queue, next)
				}
			}
		}
	}
}
