package main

import (
	"fmt"
	"sort"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"epoch_s", "s", "lower"},
	{"train_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run (--trace 1). Rates are per
// steady epoch or per mini-batch of the steady epochs.
var perLayer = []metricDef{
	{"sample.busy_s", "s", "lower"},
	{"sample.batch_p50_ms", "ms", "lower"},
	{"sample.batch_p90_ms", "ms", "lower"},
	{"pagecache.misses_per_batch", "count", "lower"},
	{"pagecache.hit_ratio", "ratio", "higher"},
	{"pagecache.hits", "count/epoch", "higher"},
	{"pagecache.misses", "count/epoch", "lower"},
	{"pagecache.resident_mb", "MB", "lower"},
	{"storage.sync_reads_per_batch", "count", "lower"},
	{"storage.sync_read_p50_us", "us", "lower"},
	{"storage.sync_read_p99_us", "us", "lower"},
	{"storage.async_reads_per_batch", "count", "lower"},
	{"storage.async_read_p50_us", "us", "lower"},
	{"storage.async_read_p99_us", "us", "lower"},
	{"storage.submit_batch_mean", "count", "higher"},
	{"storage.mb_per_batch", "MB", "lower"},
	{"storage.needed_mb_per_batch", "MB", "lower"},
	{"storage.read_amp", "ratio", "lower"},
	{"core.planner.ns_per_batch", "ns", "lower"},
	{"core.planner.ops_per_batch", "count", "lower"},
	{"core.planner.allocs_per_batch", "count", "lower"},
	{"core.featbuf.hit_ratio", "ratio", "higher"},
	{"core.featbuf.reuse_hits", "count/epoch", "higher"},
	{"core.featbuf.loads", "count/epoch", "lower"},
	{"core.featbuf.shared_waits", "count/epoch", "lower"},
	{"core.featbuf.standby_waits", "count/epoch", "lower"},
	{"core.extract.busy_s", "s", "lower"},
	{"core.extract.batch_p50_ms", "ms", "lower"},
	{"core.extract.batch_p90_ms", "ms", "lower"},
	{"core.iogate.inflight_p50", "count", "higher"},
	{"core.iogate.inflight_max", "count", "higher"},
	{"core.iogate.staging_slots", "count", "higher"},
	{"core.train.busy_s", "s", "lower"},
	{"core.train.batch_p50_ms", "ms", "lower"},
	{"core.train.batch_p90_ms", "ms", "lower"},
	{"core.release.busy_s", "s", "lower"},
	{"device.mb_per_batch", "MB", "lower"},
	{"hostmem.pinned_mb", "MB", "lower"},
	{"checkpoint.mb_per_epoch", "MB", "lower"},
	{"checkpoint.commits", "count/epoch", "higher"},
	{"runtime.allocs_per_batch", "count", "lower"},
	{"runtime.alloc_mb_per_batch", "MB", "lower"},
	{"runtime.gc_cycles_per_epoch", "count", "lower"},
	{"runtime.gc_pause_ms_per_epoch", "ms", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"val_acc", "ratio", "higher"},
	{"loss", "nats", "lower"},
	{"error_rate", "ratio", "lower"},
}

// runtimeLayers are the per-layer metrics taken from the untraced run of
// a --trace 1 invocation: the probes allocate, so the traced run would
// overstate them.
var runtimeLayers = map[string]bool{
	"runtime.allocs_per_batch":      true,
	"runtime.alloc_mb_per_batch":    true,
	"runtime.gc_cycles_per_epoch":   true,
	"runtime.gc_pause_ms_per_epoch": true,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// collect picks the defined metrics out of values, failing on any that
// is missing.
func collect(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return out, fmt.Errorf("metrics not measured: %v", missing)
	}
	return out, nil
}

// steadyEpochS is the median wall time of the epochs after the first.
func steadyEpochS(epochs []epochRecord) float64 {
	if len(epochs) < 2 {
		return 0
	}
	var xs []float64
	for _, e := range epochs[1:] {
		xs = append(xs, e.Wall)
	}
	return median(xs)
}

// endToEndValues derives the end-to-end metrics of an untraced run and
// the set-up times measured around it.
func endToEndValues(w workload, run childResult, setups []float64) map[string]float64 {
	var train float64
	for i, e := range run.Epochs {
		if i < w.minEpochs {
			train += e.Wall
		}
	}
	return map[string]float64{
		"epoch_s":     steadyEpochS(run.Epochs),
		"train_s":     train,
		"setup_s":     median(setups),
		"peak_rss_mb": float64(run.PeakRSSKB) * 1024 / 1e6,
	}
}

// perLayerValues merges a --trace 1 invocation's two runs: everything
// from the traced run except the runtime allocation metrics, which come
// from the untraced one, plus the tracing overhead.
func perLayerValues(untraced, traced childResult) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for k, v := range traced.Layers {
		if !runtimeLayers[k] {
			out[k] = v
		}
	}
	for k := range runtimeLayers {
		if v, ok := untraced.Layers[k]; ok {
			out[k] = v
		}
	}
	out["trace.overhead_ratio"] = ratio(steadyEpochS(traced.Epochs), steadyEpochS(untraced.Epochs))
	out["error_rate"] = ratio(float64(untraced.Failed+traced.Failed), float64(untraced.Attempted+traced.Attempted))
	return out
}
