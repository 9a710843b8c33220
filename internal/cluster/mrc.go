package cluster

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/mrc"
	"repro/internal/server"
)

// NodeMRC is one backend's live miss-ratio estimate, parsed off its
// `stats mrc` answer. Curve is in the miss-ratio convention of mrc.Curve;
// PredictedHit carries the backend's own capacity-scale signals keyed by
// mrc.ScaleLabels ("0.5x", "1x", ...).
type NodeMRC struct {
	Addr              string             `json:"addr"`
	Rate              float64            `json:"rate"`
	TrackedKeys       int64              `json:"tracked_keys"`
	SampledAccesses   int64              `json:"sampled_accesses"`
	EstimatedAccesses int64              `json:"estimated_accesses"`
	CapacityItems     int64              `json:"capacity_items"`
	PredictedHit      map[string]float64 `json:"predicted_hit"`
	MarginalHitPerMiB float64            `json:"marginal_hit_per_mib"`
	Curve             mrc.Curve          `json:"curve"`
}

// FleetMRC is the cluster-wide rollup: every reporting node plus a merged
// curve over the fleet's combined capacity. A fleet size S is split across
// nodes in proportion to their capacity (node i sees S·cap_i/capTotal), and
// node curves are combined weighted by estimated access volume, so busy
// nodes dominate the merged prediction the way they dominate the traffic.
type FleetMRC struct {
	Nodes         []NodeMRC          `json:"nodes"`
	CapacityItems int64              `json:"capacity_items"`
	PredictedHit  map[string]float64 `json:"predicted_hit,omitempty"`
	Curve         mrc.Curve          `json:"curve"`
}

// Enabled reports whether at least one backend published a curve.
func (f *FleetMRC) Enabled() bool { return len(f.Nodes) > 0 }

// parseMRCStats converts one backend's `stats mrc` map into a NodeMRC.
// ok is false when the backend reports the estimator disabled or the answer
// carries no curve.
func parseMRCStats(addr string, st map[string]string) (NodeMRC, bool) {
	n := NodeMRC{Addr: addr, PredictedHit: make(map[string]float64)}
	if v, err := server.StatInt(st, "enabled"); err != nil || v != 1 {
		return n, false
	}
	n.Rate, _ = server.StatFloat(st, "rate")
	n.TrackedKeys, _ = server.StatInt(st, "tracked_keys")
	n.SampledAccesses, _ = server.StatInt(st, "sampled_accesses")
	n.EstimatedAccesses, _ = server.StatInt(st, "estimated_accesses")
	n.CapacityItems, _ = server.StatInt(st, "capacity_items")
	n.MarginalHitPerMiB, _ = server.StatFloat(st, "marginal_hit_per_mib")
	for _, label := range mrc.ScaleLabels() {
		if v, err := server.StatFloat(st, "predicted_hit_"+label); err == nil {
			n.PredictedHit[label] = v
		}
	}
	// curve_<size> stats carry hit ratios on the wire (the operator-facing
	// convention); mrc.Curve stores misses, so flip while collecting.
	type pt struct {
		size int
		miss float64
	}
	var pts []pt
	for name, val := range st {
		rest, ok := strings.CutPrefix(name, "curve_")
		if !ok || rest == "points" {
			continue
		}
		size, err := strconv.Atoi(rest)
		if err != nil {
			continue
		}
		hit, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		pts = append(pts, pt{size, 1 - hit})
	}
	if len(pts) == 0 {
		return n, false
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].size < pts[j].size })
	n.Curve = mrc.Curve{Policy: "lru~shards-online"}
	for _, p := range pts {
		n.Curve.Sizes = append(n.Curve.Sizes, p.size)
		n.Curve.Ratios = append(n.Curve.Ratios, p.miss)
	}
	return n, true
}

// mergeFleetMRC builds the fleet rollup from per-node reports. points is the
// merged curve's resolution.
func mergeFleetMRC(nodes []NodeMRC, points int) FleetMRC {
	f := FleetMRC{Nodes: nodes}
	if len(nodes) == 0 {
		return f
	}
	var capTotal, wTotal float64
	weights := make([]float64, len(nodes))
	for i, n := range nodes {
		capTotal += float64(n.CapacityItems)
		w := float64(n.EstimatedAccesses)
		if w <= 0 {
			w = float64(n.CapacityItems)
		}
		if w <= 0 {
			w = 1
		}
		weights[i] = w
		wTotal += w
	}
	f.CapacityItems = int64(capTotal)
	if capTotal <= 0 || wTotal <= 0 {
		return f
	}
	// Merged curve domain: an eighth to four times the fleet capacity, so the
	// 0.5x–4x scale signals all read off interpolated (not clamped) points.
	lo := int(capTotal / 8)
	if lo < 1 {
		lo = 1
	}
	hi := int(capTotal * 4)
	if hi < lo+1 {
		hi = lo + 1
	}
	if points <= 0 {
		points = 32
	}
	sizes := mrc.LogSizes(lo, hi, points)
	f.Curve = mrc.Curve{Policy: "lru~shards-fleet", Sizes: sizes}
	missAt := func(fleetSize float64) float64 {
		var miss float64
		for i, n := range nodes {
			share := fleetSize * float64(n.CapacityItems) / capTotal
			miss += weights[i] / wTotal * n.Curve.At(int(share))
		}
		return miss
	}
	for _, s := range sizes {
		f.Curve.Ratios = append(f.Curve.Ratios, missAt(float64(s)))
	}
	f.PredictedHit = make(map[string]float64)
	labels := mrc.ScaleLabels()
	for i, scale := range mrc.ScaleFactors() {
		f.PredictedHit[labels[i]] = 1 - missAt(capTotal*scale)
	}
	return f
}

// FleetMRC polls every backend's `stats mrc` and rolls the answers up,
// cached briefly like aggregate() so an admin page plus a metrics scrape
// costs one fleet poll. Backends with the estimator disabled are skipped;
// a fleet with none enabled reports Enabled()==false.
func (r *Router) FleetMRC() FleetMRC {
	r.mrcMu.Lock()
	defer r.mrcMu.Unlock()
	if time.Since(r.mrcAt) < 2*time.Second {
		return r.mrcCache
	}
	var reports []NodeMRC
	for _, n := range r.nodeList(true) {
		var st map[string]string
		err := n.do(func(c *server.Client) (err error) {
			st, err = c.StatsArg("mrc")
			if err != nil && !server.IsTransportErr(err) {
				// An old backend answers `stats mrc` with CLIENT_ERROR;
				// treat it like a disabled estimator rather than a
				// forwarding failure.
				st, err = nil, nil
			}
			return err
		})
		if err != nil {
			continue
		}
		if rep, ok := parseMRCStats(n.addr, st); ok {
			reports = append(reports, rep)
		}
	}
	r.mrcCache = mergeFleetMRC(reports, 32)
	r.mrcAt = time.Now()
	return r.mrcCache
}
