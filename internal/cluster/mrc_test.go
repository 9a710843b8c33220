package cluster

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"regexp"
	"testing"

	"repro/internal/concurrent"
	"repro/internal/mrc"
	"repro/internal/obs"
	"repro/internal/server"
)

func mrcStatsFixture(capacity string) map[string]string {
	return map[string]string{
		"enabled":              "1",
		"rate":                 "0.010000",
		"tracked_keys":         "1200",
		"sampled_accesses":     "5000",
		"estimated_accesses":   "500000",
		"cold_misses":          "900",
		"dropped":              "3",
		"capacity_items":       capacity,
		"bytes_per_item":       "128.0",
		"predicted_hit_0.5x":   "0.6100",
		"predicted_hit_1x":     "0.7500",
		"predicted_hit_2x":     "0.8400",
		"predicted_hit_4x":     "0.9000",
		"marginal_hit_per_mib": "0.000120",
		"curve_points":         "3",
		"curve_1000":           "0.5000", // hit ratios on the wire
		"curve_10000":          "0.7500",
		"curve_100000":         "0.9000",
	}
}

func TestParseMRCStats(t *testing.T) {
	n, ok := parseMRCStats("a:1", mrcStatsFixture("50000"))
	if !ok {
		t.Fatal("well-formed stats rejected")
	}
	if n.Addr != "a:1" || n.Rate != 0.01 || n.TrackedKeys != 1200 || n.CapacityItems != 50000 {
		t.Fatalf("parsed = %+v", n)
	}
	if n.EstimatedAccesses != 500000 || n.MarginalHitPerMiB != 0.00012 {
		t.Fatalf("parsed = %+v", n)
	}
	if n.PredictedHit["1x"] != 0.75 || n.PredictedHit["0.5x"] != 0.61 {
		t.Fatalf("predicted hit = %v", n.PredictedHit)
	}
	// Curve arrives as hit ratios sorted by stat-name iteration order;
	// the parse must sort by size and flip to miss ratios.
	wantSizes := []int{1000, 10000, 100000}
	wantMiss := []float64{0.5, 0.25, 0.1}
	for i := range wantSizes {
		if n.Curve.Sizes[i] != wantSizes[i] || math.Abs(n.Curve.Ratios[i]-wantMiss[i]) > 1e-12 {
			t.Fatalf("curve = %v / %v", n.Curve.Sizes, n.Curve.Ratios)
		}
	}

	if _, ok := parseMRCStats("b:1", map[string]string{"enabled": "0"}); ok {
		t.Fatal("disabled estimator accepted")
	}
	st := mrcStatsFixture("50000")
	for k := range st {
		if len(k) > 6 && k[:6] == "curve_" {
			delete(st, k)
		}
	}
	if _, ok := parseMRCStats("c:1", st); ok {
		t.Fatal("curveless stats accepted")
	}
}

func TestMergeFleetMRC(t *testing.T) {
	// Two identical nodes: the merged curve evaluated at the fleet capacity
	// must equal one node's curve at its own capacity (each node holds half
	// the fleet size, and both curves agree).
	a, _ := parseMRCStats("a:1", mrcStatsFixture("10000"))
	b, _ := parseMRCStats("b:1", mrcStatsFixture("10000"))
	f := mergeFleetMRC([]NodeMRC{a, b}, 16)
	if !f.Enabled() || f.CapacityItems != 20000 {
		t.Fatalf("fleet = %+v", f)
	}
	wantHit := 1 - a.Curve.At(10000)
	if got := f.PredictedHit["1x"]; math.Abs(got-wantHit) > 1e-9 {
		t.Fatalf("fleet 1x hit = %v, want %v", got, wantHit)
	}
	for i := 1; i < len(f.Curve.Ratios); i++ {
		if f.Curve.Ratios[i] > f.Curve.Ratios[i-1]+1e-12 {
			t.Fatalf("merged curve not monotone: %v", f.Curve.Ratios)
		}
	}

	// Weighting: a node with 9x the traffic dominates the merged hit ratio.
	hot, _ := parseMRCStats("hot:1", mrcStatsFixture("10000"))
	cold, _ := parseMRCStats("cold:1", mrcStatsFixture("10000"))
	hot.EstimatedAccesses = 900000
	cold.EstimatedAccesses = 100000
	// Make the cold node's curve much worse so the weighting is visible.
	for i := range cold.Curve.Ratios {
		cold.Curve.Ratios[i] = 1
	}
	g := mergeFleetMRC([]NodeMRC{hot, cold}, 16)
	hotHit := 1 - hot.Curve.At(10000)
	wantWeighted := 0.9 * hotHit // cold node contributes zero hits
	if got := g.PredictedHit["1x"]; math.Abs(got-wantWeighted) > 1e-9 {
		t.Fatalf("weighted 1x hit = %v, want %v", got, wantWeighted)
	}

	// Empty input: disabled rollup, no curve.
	e := mergeFleetMRC(nil, 16)
	if e.Enabled() || len(e.Curve.Sizes) != 0 {
		t.Fatalf("empty merge = %+v", e)
	}
}

func TestMergeFleetMRCScaleLabelsComplete(t *testing.T) {
	a, _ := parseMRCStats("a:1", mrcStatsFixture("10000"))
	f := mergeFleetMRC([]NodeMRC{a}, 8)
	for _, label := range mrc.ScaleLabels() {
		if _, ok := f.PredictedHit[label]; !ok {
			t.Fatalf("merged rollup missing scale %s: %v", label, f.PredictedHit)
		}
	}
}

// withMRC gives a backend the served estimator: its KV offers every read
// to a rate-1 sampler that a QDLP-miniature estimator drains.
func withMRC(t *testing.T) func(*server.Config) {
	return func(cfg *server.Config) {
		smp := obs.NewKeySampler(1, 1, 1<<12)
		cfg.Store.(*concurrent.KV).SetSampler(smp)
		o, err := mrc.NewOnline(mrc.OnlineConfig{Rate: 1, Source: smp, Cache: func(c int) (concurrent.Cache, error) {
			return concurrent.New("qdlp", c, concurrent.WithShards(1))
		}})
		if err != nil {
			t.Fatal(err)
		}
		cfg.MRC = o
	}
}

// The router's /cluster page rolls up two MRC-enabled backends: the text
// form carries one `mrc node=` line per backend and the `mrc fleet` line,
// and the JSON form's curves carry the policy-free labels.
func TestRouterAdminFleetMRC(t *testing.T) {
	addrs := make([]string, 2)
	for i := range addrs {
		addrs[i], _ = startBackendWith(t, withMRC(t))
		c := dialNode(t, addrs[i])
		for k := 0; k < 3000; k++ {
			key := []byte(fmt.Sprintf("k%d", k%1000))
			if _, found, err := c.Get(key); err != nil {
				t.Fatal(err)
			} else if !found {
				if err := c.Set(key, 0, []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	router, err := NewRouter(RouterConfig{Nodes: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	get := func(target string) string {
		rr := httptest.NewRecorder()
		router.AdminHandler().ServeHTTP(rr, httptest.NewRequest("GET", target, nil))
		if rr.Code != 200 {
			t.Fatalf("GET %s: %d %q", target, rr.Code, rr.Body.String())
		}
		return rr.Body.String()
	}

	page := get("/cluster")
	hits := `hit_0\.5x=[01]\.\d{4} hit_1x=[01]\.\d{4} hit_2x=[01]\.\d{4} hit_4x=[01]\.\d{4}`
	for _, addr := range addrs {
		node := regexp.MustCompile(`(?m)^mrc node=` + regexp.QuoteMeta(addr) +
			` rate=1\.0000 tracked_keys=1000 capacity_items=8192 ` + hits + ` marginal_hit_per_mib=-?\d+\.\d{6}$`)
		if !node.MatchString(page) {
			t.Errorf("/cluster has no mrc line for %s:\n%s", addr, page)
		}
	}
	if !regexp.MustCompile(`(?m)^mrc fleet nodes=2 capacity_items=16384 ` + hits + `$`).MatchString(page) {
		t.Errorf("/cluster has no mrc fleet line:\n%s", page)
	}

	var p clusterPage
	if err := json.Unmarshal([]byte(get("/cluster?format=json")), &p); err != nil {
		t.Fatal(err)
	}
	if p.MRC == nil || len(p.MRC.Nodes) != 2 {
		t.Fatalf("JSON page carries no two-node rollup: %+v", p.MRC)
	}
	if got := p.MRC.Curve.Policy; got != "shards-fleet" {
		t.Errorf("fleet curve label %q, want shards-fleet", got)
	}
	for _, n := range p.MRC.Nodes {
		if n.Curve.Policy != "shards-online" {
			t.Errorf("node %s curve label %q, want shards-online", n.Addr, n.Curve.Policy)
		}
	}
}
