package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/metrics"
	"repro/internal/mrc"
	"repro/internal/telemetry"
)

// seriesWindows are the sliding windows every surface reports, smallest
// first. They are fixed — dashboards and the golden-tested text formats
// key on the labels.
var seriesWindows = [...]time.Duration{time.Minute, 5 * time.Minute, time.Hour}

// sampleTelemetry is the 1 Hz source for the windowed series: one store
// snapshot plus the per-command latency histogram bucket counts summed
// into a single distribution. It runs off the serving path and must not
// take s.mu (Shutdown holds it while waiting for the sampler to stop).
func (s *Server) sampleTelemetry() telemetry.Sample {
	snap := s.cfg.Store.Stats()
	smp := telemetry.Sample{
		Hits:      snap.Hits,
		Misses:    snap.Misses,
		Sets:      snap.Sets,
		Deletes:   snap.Deletes,
		Evictions: snap.Evictions,
		Expired:   snap.Expired,
		UsedBytes: snap.UsedBytes,
		Items:     int64(snap.Len),
	}
	if m := s.metrics; m != nil {
		var counts []int64
		for _, h := range m.duration {
			if h != nil {
				counts = h.BucketCounts(counts)
			}
		}
		smp.LatencyCounts = counts
	}
	return smp
}

// mrcScale evaluates an estimator snapshot at the store's current
// capacity in objects — the configured entry capacity when there is one,
// otherwise the byte budget divided by the current mean object size,
// otherwise the current item count — read from one store snapshot.
func (s *Server) mrcScale(sn *mrc.OnlineSnapshot) mrc.Signals {
	st := s.cfg.Store.Stats()
	capacity, perItem := st.Capacity, 0.0
	if st.Len > 0 && st.UsedBytes > 0 {
		perItem = float64(st.UsedBytes) / float64(st.Len)
	}
	switch {
	case capacity > 0:
	case st.MaxBytes > 0 && perItem > 0:
		capacity = int(float64(st.MaxBytes) * float64(st.Len) / float64(st.UsedBytes))
	default:
		capacity = st.Len
	}
	return sn.Signals(capacity, perItem)
}

// mrcSignals refreshes the estimator and evaluates it at the store's
// current capacity. ok is false when no estimator is configured.
func (s *Server) mrcSignals() (*mrc.OnlineSnapshot, mrc.Signals, bool) {
	o := s.cfg.MRC
	if o == nil {
		return nil, mrc.Signals{}, false
	}
	sn := o.Publish()
	return sn, s.mrcScale(sn), true
}

// mrcDump is the /debug/mrc JSON payload.
type mrcDump struct {
	Rate              float64      `json:"rate"`
	TrackedKeys       int          `json:"tracked_keys"`
	SampledAccesses   int64        `json:"sampled_accesses"`
	EstimatedAccesses int64        `json:"estimated_accesses"`
	ColdMisses        int64        `json:"cold_misses"`
	Dropped           int64        `json:"dropped"`
	MaxSize           int          `json:"max_size"`
	AgeSeconds        float64      `json:"age_seconds"`
	Signals           mrc.Signals  `json:"signals"`
	Curve             []curvePoint `json:"curve"`
}

type curvePoint struct {
	Size int     `json:"size"`
	Miss float64 `json:"miss_ratio"`
	Hit  float64 `json:"hit_ratio"`
}

func buildMRCDump(sn *mrc.OnlineSnapshot, sig mrc.Signals, now time.Time) mrcDump {
	d := mrcDump{
		Rate:              sn.Rate,
		TrackedKeys:       sn.TrackedKeys,
		SampledAccesses:   sn.SampledAccesses,
		EstimatedAccesses: sn.EstimatedAccesses,
		ColdMisses:        sn.ColdMisses,
		Dropped:           sn.Dropped,
		MaxSize:           sn.MaxSize,
		AgeSeconds:        now.Sub(sn.At).Seconds(),
		Signals:           sig,
		Curve:             []curvePoint{},
	}
	for i, size := range sn.Curve.Sizes {
		miss := sn.Curve.Ratios[i]
		d.Curve = append(d.Curve, curvePoint{Size: size, Miss: miss, Hit: 1 - miss})
	}
	return d
}

// writeMRCText renders the curve and signals in the stable line form
// (golden-tested): header comments, one `signal` line per capacity scale,
// one `point` line per curve size. Hit ratios on point lines are the
// served policy's; only an LRU server's are monotone in size by
// construction.
func writeMRCText(w io.Writer, d mrcDump) {
	fmt.Fprintf(w, "# mrc rate=%.4f tracked_keys=%d sampled=%d est_accesses=%d cold=%d dropped=%d max_size=%d age=%.1fs\n",
		d.Rate, d.TrackedKeys, d.SampledAccesses, d.EstimatedAccesses, d.ColdMisses, d.Dropped, d.MaxSize, d.AgeSeconds)
	fmt.Fprintf(w, "# signals capacity_items=%d bytes_per_item=%.1f marginal_hit_per_mib=%.6f\n",
		d.Signals.CapacityItems, d.Signals.BytesPerItem, d.Signals.MarginalHitPerMiB)
	for _, sc := range d.Signals.Scales {
		fmt.Fprintf(w, "signal scale=%gx size=%d predicted_hit=%.4f\n", sc.Scale, sc.Size, sc.HitRatio)
	}
	for _, p := range d.Curve {
		fmt.Fprintf(w, "point size=%d miss=%.4f hit=%.4f\n", p.Size, p.Miss, p.Hit)
	}
}

// handleDebugMRC serves /debug/mrc: the online SHARDS miss-ratio curve and
// its capacity-planning signals, text by default, ?format=json for the
// machine form. Without -mrc-sample it answers 200 with a disabled note,
// so dashboards need not special-case the config.
func (s *Server) handleDebugMRC(w http.ResponseWriter, r *http.Request) {
	sn, sig, ok := s.mrcSignals()
	switch r.URL.Query().Get("format") {
	case "", "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !ok {
			fmt.Fprintln(w, "# mrc disabled (start cacheserver with -mrc-sample)")
			return
		}
		writeMRCText(w, buildMRCDump(sn, sig, time.Now()))
	case "json":
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if !ok {
			enc.Encode(map[string]bool{"enabled": false})
			return
		}
		enc.Encode(buildMRCDump(sn, sig, time.Now()))
	default:
		http.Error(w, "bad format (want text or json)", http.StatusBadRequest)
	}
}

// seriesDump is the /debug/series payload: the sliding-window aggregates
// plus the most recent per-second points.
type seriesDump struct {
	Windows []telemetry.Agg   `json:"windows"`
	Points  []telemetry.Point `json:"points"`
}

func (s *Server) seriesDumpFor(now time.Time, points int) seriesDump {
	d := seriesDump{Windows: []telemetry.Agg{}, Points: []telemetry.Point{}}
	sec := now.Unix()
	for _, w := range seriesWindows {
		d.Windows = append(d.Windows, s.series.Window(sec, w))
	}
	if points > 0 {
		d.Points = s.series.Points(sec, points)
	}
	return d
}

// writeSeriesText renders the windowed aggregates and recent seconds in
// the stable line form (golden-tested).
func writeSeriesText(w io.Writer, d seriesDump) {
	fmt.Fprintf(w, "# series windows=%d points=%d\n", len(d.Windows), len(d.Points))
	for _, a := range d.Windows {
		fmt.Fprintf(w, "window d=%s seconds=%d ops=%d hit_ratio=%.4f ops_per_sec=%.1f sets=%d deletes=%d evictions=%d expired=%d used_bytes=%d items=%d p50=%.6f p99=%.6f\n",
			a.Label, a.Seconds, a.Ops, a.HitRatio, a.OpsPerSec, a.Sets, a.Deletes,
			a.Evictions, a.Expired, a.UsedBytes, a.Items, a.P50, a.P99)
	}
	for _, p := range d.Points {
		fmt.Fprintf(w, "sec=%d ops=%d hit_ratio=%.4f sets=%d evictions=%d used_bytes=%d items=%d\n",
			p.Sec, p.Ops, p.HitRatio, p.Sets, p.Evictions, p.UsedBytes, p.Items)
	}
}

// handleDebugSeries serves /debug/series: hit ratio, ops, occupancy,
// eviction, and latency-percentile aggregates over sliding 1m/5m/1h
// windows, plus recent per-second points. Query parameters:
//
//	n=60         how many recent per-second points to include
//	format=json  machine form; default is the text line form
func (s *Server) handleDebugSeries(w http.ResponseWriter, r *http.Request) {
	points := 60
	if v := r.URL.Query().Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		points = n
	}
	s.series.RecordNow() // a scrape mid-interval sees current numbers
	d := s.seriesDumpFor(time.Now(), points)
	switch r.URL.Query().Get("format") {
	case "", "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeSeriesText(w, d)
	case "json":
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(d)
	default:
		http.Error(w, "bad format (want text or json)", http.StatusBadRequest)
	}
}

// writeMRCStats renders the `stats mrc` subcommand: the curve and signals
// as STAT lines, so the cluster router and the load client harvest them
// over the cache protocol with no HTTP dependency. Disabled servers answer
// `STAT enabled 0` + END.
func (s *Server) writeMRCStats(bw respWriter) {
	sn, sig, ok := s.mrcSignals()
	if !ok {
		writeStat(bw, "enabled", 0)
		writeEnd(bw)
		return
	}
	writeStat(bw, "enabled", 1)
	writeStatFloat(bw, "rate", sn.Rate, 6)
	writeStat(bw, "tracked_keys", int64(sn.TrackedKeys))
	writeStat(bw, "sampled_accesses", sn.SampledAccesses)
	writeStat(bw, "estimated_accesses", sn.EstimatedAccesses)
	writeStat(bw, "cold_misses", sn.ColdMisses)
	writeStat(bw, "dropped", sn.Dropped)
	writeStat(bw, "capacity_items", int64(sig.CapacityItems))
	writeStatFloat(bw, "bytes_per_item", sig.BytesPerItem, 1)
	labels := mrc.ScaleLabels()
	for i, sc := range sig.Scales {
		writeStatFloat(bw, "predicted_hit_"+labels[i], sc.HitRatio, 4)
	}
	writeStatFloat(bw, "marginal_hit_per_mib", sig.MarginalHitPerMiB, 6)
	writeStat(bw, "curve_points", int64(len(sn.Curve.Sizes)))
	for i, size := range sn.Curve.Sizes {
		writeStatFloat(bw, "curve_"+strconv.Itoa(size), 1-sn.Curve.Ratios[i], 4)
	}
	writeEnd(bw)
}

// initAnalyticsMetrics registers the cache_mrc_* gauge families (only with
// an estimator configured) and the cache_window_* windowed-series families.
// Called from initMetrics.
func (s *Server) initAnalyticsMetrics(reg *metrics.Registry) {
	for _, wd := range seriesWindows {
		wd := wd
		label := windowLabel(wd)
		window := func() telemetry.Agg { return s.series.Window(time.Now().Unix(), wd) }
		reg.GaugeFunc("cache_window_hit_ratio", "Hit ratio over the sliding window.",
			func() float64 { return window().HitRatio }, "window", label)
		reg.GaugeFunc("cache_window_ops_per_sec", "Request rate over the sliding window.",
			func() float64 { return window().OpsPerSec }, "window", label)
		reg.GaugeFunc("cache_window_evictions", "Capacity evictions in the sliding window.",
			func() float64 { return float64(window().Evictions) }, "window", label)
		reg.GaugeFunc("cache_window_p50_request_seconds", "p50 request latency over the sliding window, seconds.",
			func() float64 { return window().P50 }, "window", label)
		reg.GaugeFunc("cache_window_p99_request_seconds", "p99 request latency over the sliding window, seconds.",
			func() float64 { return window().P99 }, "window", label)
	}

	o := s.cfg.MRC
	if o == nil {
		return
	}
	signals := func() mrc.Signals { return s.mrcScale(o.Snapshot()) }
	for i, label := range mrc.ScaleLabels() {
		i := i
		reg.GaugeFunc("cache_mrc_predicted_hit_ratio",
			"Predicted hit ratio at a multiple of current capacity (online SHARDS estimate).",
			func() float64 {
				sig := signals()
				if i >= len(sig.Scales) {
					return 0
				}
				return sig.Scales[i].HitRatio
			}, "scale", label)
	}
	reg.GaugeFunc("cache_mrc_marginal_hit_ratio_per_mib", "Predicted hit-ratio gain per extra MiB of capacity.",
		func() float64 { return signals().MarginalHitPerMiB })
	reg.GaugeFunc("cache_mrc_sample_rate", "SHARDS spatial sampling rate.",
		func() float64 { return o.Rate() })
	reg.GaugeFunc("cache_mrc_tracked_keys", "Sampled keys currently tracked by the estimator.",
		func() float64 { return float64(o.Snapshot().TrackedKeys) })
	reg.CounterFunc("cache_mrc_sampled_accesses_total", "Accesses that passed the spatial sampling filter.",
		func() int64 { return o.Snapshot().SampledAccesses })
	reg.CounterFunc("cache_mrc_samples_dropped_total", "Sampled accesses lost in the staging rings before the drain loop saw them.",
		func() int64 { return o.Snapshot().Dropped })
}

// windowLabel renders the fixed window labels the metric families carry.
func windowLabel(d time.Duration) string {
	switch {
	case d >= time.Hour && d%time.Hour == 0:
		return strconv.Itoa(int(d/time.Hour)) + "h"
	default:
		return strconv.Itoa(int(d/time.Minute)) + "m"
	}
}
